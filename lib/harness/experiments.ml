open Ff_benchmarks
module Pipeline = Fastflip.Pipeline
module Baseline = Fastflip.Baseline
module Adjust = Fastflip.Adjust
module Compare = Fastflip.Compare

type version_result = {
  version : Defs.version;
  program : Ff_ir.Program.t;
  ff : Pipeline.analysis;
  base : Baseline.t;
  ff_work : int;
  base_work : int;
}

type benchmark_run = {
  bench : Defs.t;
  results : version_result list;
  adjusted_targets : (float * float) list;
}

let standard_targets = [ 0.90; 0.95; 0.99 ]

let run_version ?pool config store bench version =
  let program = Ff_lang.Frontend.compile_exn (bench.Defs.source version) in
  let ff = Pipeline.analyze ~store ?pool config program in
  let base =
    Baseline.analyze ?pool config.Pipeline.campaign ~epsilon:config.Pipeline.epsilon
      ff.Pipeline.golden
  in
  {
    version;
    program;
    ff;
    base;
    ff_work = ff.Pipeline.work;
    base_work = base.Baseline.work;
  }

(* Adjusted targets come from the first (unmodified) version. *)
let of_results bench results =
  let first = List.hd results in
  let adjusted_targets =
    List.map
      (fun target ->
        ( target,
          Adjust.compute_adjusted_target ~ff:first.ff
            ~ground_truth:first.base.Baseline.valuation ~target ))
      standard_targets
  in
  { bench; results; adjusted_targets }

let run_benchmark ?(config = Pipeline.default_config) ?pool ?store bench =
  let store =
    match store with Some store -> store | None -> Fastflip.Store.create ()
  in
  of_results bench (List.map (run_version ?pool config store bench) Defs.all_versions)

let at_epsilon ~epsilon run =
  of_results run.bench
    (List.map
       (fun r ->
         {
           r with
           ff = Pipeline.revaluate r.ff ~epsilon;
           base = Baseline.revaluate r.base ~epsilon;
         })
       run.results)

let utility_rows ?(adjusted = true) run result =
  let targets =
    if adjusted then run.adjusted_targets
    else List.map (fun t -> (t, t)) standard_targets
  in
  Compare.rows ~ff:result.ff ~base:result.base ~inaccuracy:run.bench.Defs.inaccuracy
    ~targets

let speedup result =
  if result.ff_work = 0 then infinity
  else float_of_int result.base_work /. float_of_int result.ff_work
