(* End-to-end integration tests of the full FastFlip pipeline against the
   monolithic baseline, including the paper's key semantic invariants. *)

module Site = Ff_inject.Site
module Campaign = Ff_inject.Campaign
module Eqclass = Ff_inject.Eqclass
module Outcome = Ff_inject.Outcome
module Golden = Ff_vm.Golden
module Frontend = Ff_lang.Frontend
open Fastflip
open Ff_benchmarks

let compile src = Result.get_ok (Frontend.compile src)

let quick_config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 2; 40; 63 ] };
    sensitivity_samples = 80;
  }

(* --- single-section degeneration ------------------------------------------- *)

(* With one section whose outputs are the program outputs, FastFlip's
   per-section labels must agree exactly with the baseline's end-to-end
   labels: the compositional machinery degenerates to the monolith. *)
let test_single_section_agrees_with_baseline () =
  let src =
    {|buffer a : float[4] = { 0.5, 0.25, 0.125, 2.0 };
output buffer res : float[4] = zeros;
kernel k(in a: float[], out res: float[]) {
  for i in 0..4 { res[i] = a[i] * 3.0 + 1.0; }
}
schedule { call k(a, res); }|}
  in
  let ff = Pipeline.analyze quick_config (compile src) in
  let base =
    Baseline.analyze quick_config.Pipeline.campaign ~epsilon:0.0 ff.Pipeline.golden
  in
  let ff_bad =
    List.filter_map
      (fun { Valuation.cls; bad } -> if bad then Some (Eqclass.pc cls, Eqclass.operand cls, cls.Eqclass.bit) else None)
      ff.Pipeline.valuation.Valuation.labels
    |> List.sort compare
  in
  let base_bad =
    List.filter_map
      (fun { Valuation.cls; bad } -> if bad then Some (Eqclass.pc cls, Eqclass.operand cls, cls.Eqclass.bit) else None)
      base.Baseline.valuation.Valuation.labels
    |> List.sort compare
  in
  Alcotest.(check int) "same number of SDC-Bad classes" (List.length base_bad)
    (List.length ff_bad);
  Alcotest.(check bool) "identical label sets" true (ff_bad = base_bad)

(* --- conservatism ------------------------------------------------------------ *)

(* FastFlip is conservative: every class the baseline labels SDC-Bad and
   FastFlip observed as a section SDC must also be SDC-Bad for FastFlip
   (modulo pilot divergence, which per-section vs global pilots can cause;
   we check the aggregate direction instead: FastFlip's value mass >= most
   of the baseline's). *)
let test_fastflip_conservative_on_chain () =
  let src =
    {|buffer a : float[4] = { 0.5, 0.25, 0.125, 2.0 };
buffer mid : float[4] = zeros;
output buffer res : float[4] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..4 { mid[i] = a[i] * 2.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..4 { res[i] = mid[i] + 1.0; }
}
schedule {
  call first(a, mid);
  call second(mid, res);
}|}
  in
  let ff = Pipeline.analyze quick_config (compile src) in
  let base =
    Baseline.analyze quick_config.Pipeline.campaign ~epsilon:0.0 ff.Pipeline.golden
  in
  Alcotest.(check bool) "FF value mass >= 80% of baseline's" true
    (float_of_int ff.Pipeline.valuation.Valuation.total_value
    >= 0.8 *. float_of_int base.Baseline.valuation.Valuation.total_value)

(* --- full benchmark flow ------------------------------------------------------ *)

let run_bscholes () =
  Ff_harness.Experiments.run_benchmark ~config:quick_config
    (Option.get (Registry.find "BScholes"))

let bscholes = lazy (run_bscholes ())

let result_for run v =
  List.find
    (fun r -> r.Ff_harness.Experiments.version = v)
    run.Ff_harness.Experiments.results

let test_incremental_reuse_counts () =
  let run = Lazy.force bscholes in
  let none = result_for run Defs.V_none in
  Alcotest.(check int) "None analyzes all 8" 8
    none.Ff_harness.Experiments.ff.Pipeline.sections_analyzed;
  let small = result_for run Defs.V_small in
  (* Small touches both CNDF kernels: 2 kernels x 2 options = 4 sections. *)
  Alcotest.(check int) "Small reuses 4" 4
    small.Ff_harness.Experiments.ff.Pipeline.sections_reused;
  let large = result_for run Defs.V_large in
  (* Large touches bs_d only: 2 sections re-analyzed... but bs_d's output
     is bit-identical, so downstream sections all reuse. *)
  Alcotest.(check int) "Large re-analyzes 2" 2
    large.Ff_harness.Experiments.ff.Pipeline.sections_analyzed

let test_modified_versions_cheaper () =
  let run = Lazy.force bscholes in
  let none = result_for run Defs.V_none in
  List.iter
    (fun v ->
      let r = result_for run v in
      Alcotest.(check bool)
        (Printf.sprintf "%s cheaper than None" (Defs.version_name v))
        true
        (r.Ff_harness.Experiments.ff_work < none.Ff_harness.Experiments.ff_work))
    [ Defs.V_small; Defs.V_large ]

let test_baseline_never_reuses () =
  let run = Lazy.force bscholes in
  List.iter
    (fun r ->
      Alcotest.(check bool) "baseline work stays high" true
        (r.Ff_harness.Experiments.base_work > 0))
    run.Ff_harness.Experiments.results

let test_utility_rows_meet_targets () =
  let run = Lazy.force bscholes in
  List.iter
    (fun r ->
      let rows = Ff_harness.Experiments.utility_rows run r in
      List.iter
        (fun row ->
          (* Within the pruning error range, or at worst a paper-scale
             loss of value (the paper's max is 1.7%; allow 3% under this
             test's coarse 3-bit subset). *)
          let ok =
            row.Compare.acceptable || row.Compare.achieved >= row.Compare.target -. 0.03
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s target %.2f acceptable (achieved %.3f, range %.3f)"
               (Defs.version_name r.Ff_harness.Experiments.version)
               row.Compare.target row.Compare.achieved row.Compare.error_range)
            true ok)
        rows)
    run.Ff_harness.Experiments.results

let test_costs_increase_with_target () =
  let run = Lazy.force bscholes in
  let r = result_for run Defs.V_none in
  let rows = Ff_harness.Experiments.utility_rows run r in
  let costs = List.map (fun row -> row.Compare.ff_cost) rows in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "cost grows with target" true (ascending costs)

let test_epsilon_good_relabeling () =
  let run = Lazy.force bscholes in
  let r = result_for run Defs.V_none in
  let strict = r.Ff_harness.Experiments.ff.Pipeline.valuation.Valuation.total_value in
  let relaxed =
    (Pipeline.revaluate r.Ff_harness.Experiments.ff ~epsilon:0.01).Pipeline.valuation
      .Valuation.total_value
  in
  Alcotest.(check bool) "SDC-Good shrinks (or keeps) the value mass" true
    (relaxed <= strict)

(* --- parallel determinism ----------------------------------------------------- *)

(* NaNs can appear in outcome SDC magnitudes; [compare] equates them
   where [=] would not. *)
let structurally_equal a b = Stdlib.compare a b = 0

(* The pool invariant: for any domain count, the analysis — valuation,
   knapsack solution, campaign outcome arrays, and every work counter —
   is bit-identical to the serial run. *)
let test_parallel_analysis_deterministic () =
  List.iter
    (fun name ->
      let bench = Option.get (Registry.find name) in
      let program = Frontend.compile_exn (bench.Defs.source Defs.V_none) in
      let serial = Pipeline.analyze quick_config program in
      List.iter
        (fun domains ->
          Ff_support.Pool.with_pool ~domains (fun pool ->
              let par = Pipeline.analyze ~pool quick_config program in
              let ctx fmt = Printf.sprintf "%s @%d domains: %s" name domains fmt in
              Alcotest.(check bool) (ctx "valuation") true
                (structurally_equal serial.Pipeline.valuation par.Pipeline.valuation);
              Alcotest.(check bool) (ctx "knapsack solution") true
                (structurally_equal serial.Pipeline.solution par.Pipeline.solution);
              Alcotest.(check bool) (ctx "section records") true
                (structurally_equal serial.Pipeline.sections par.Pipeline.sections);
              Alcotest.(check int) (ctx "work") serial.Pipeline.work par.Pipeline.work;
              Alcotest.(check int) (ctx "total section work")
                serial.Pipeline.total_section_work par.Pipeline.total_section_work;
              Alcotest.(check int) (ctx "sections analyzed")
                serial.Pipeline.sections_analyzed par.Pipeline.sections_analyzed))
        [ 1; 2; 4 ])
    [ "BScholes"; "LUD" ]

let test_parallel_campaigns_deterministic () =
  let bench = Option.get (Registry.find "BScholes") in
  let program = Frontend.compile_exn (bench.Defs.source Defs.V_none) in
  let golden = Golden.run program in
  let config = quick_config.Pipeline.campaign in
  let serial_sections =
    Array.init (Array.length golden.Golden.sections) (fun i ->
        Campaign.run_section golden ~section_index:i config)
  in
  let serial_baseline = Campaign.run_baseline golden config in
  List.iter
    (fun domains ->
      Ff_support.Pool.with_pool ~domains (fun pool ->
          let par_sections =
            Array.init (Array.length golden.Golden.sections) (fun i ->
                Campaign.run_section ~pool golden ~section_index:i config)
          in
          Alcotest.(check bool)
            (Printf.sprintf "section outcomes @%d domains" domains)
            true
            (structurally_equal serial_sections par_sections);
          let par_baseline = Campaign.run_baseline ~pool golden config in
          Alcotest.(check bool)
            (Printf.sprintf "baseline outcomes @%d domains" domains)
            true
            (structurally_equal serial_baseline par_baseline)))
    [ 2; 4 ]

let test_deterministic_end_to_end () =
  let r1 = run_bscholes () in
  let r2 = run_bscholes () in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "same ff work" a.Ff_harness.Experiments.ff_work
        b.Ff_harness.Experiments.ff_work;
      Alcotest.(check int) "same base work" a.Ff_harness.Experiments.base_work
        b.Ff_harness.Experiments.base_work;
      Alcotest.(check int) "same value mass"
        a.Ff_harness.Experiments.ff.Pipeline.valuation.Valuation.total_value
        b.Ff_harness.Experiments.ff.Pipeline.valuation.Valuation.total_value)
    r1.Ff_harness.Experiments.results r2.Ff_harness.Experiments.results

let () =
  Alcotest.run "integration"
    [
      ( "invariants",
        [
          Alcotest.test_case "single section degenerates to baseline" `Quick
            test_single_section_agrees_with_baseline;
          Alcotest.test_case "conservatism on a chain" `Quick
            test_fastflip_conservative_on_chain;
        ] );
      ( "bscholes flow",
        [
          Alcotest.test_case "reuse counts" `Quick test_incremental_reuse_counts;
          Alcotest.test_case "modified versions cheaper" `Quick test_modified_versions_cheaper;
          Alcotest.test_case "baseline never reuses" `Quick test_baseline_never_reuses;
          Alcotest.test_case "targets met" `Quick test_utility_rows_meet_targets;
          Alcotest.test_case "cost monotone in target" `Quick test_costs_increase_with_target;
          Alcotest.test_case "epsilon relabeling" `Quick test_epsilon_good_relabeling;
          Alcotest.test_case "deterministic" `Quick test_deterministic_end_to_end;
        ] );
      ( "parallel determinism",
        [
          Alcotest.test_case "analysis identical across domain counts" `Quick
            test_parallel_analysis_deterministic;
          Alcotest.test_case "campaign outcomes identical across domain counts" `Quick
            test_parallel_campaigns_deterministic;
        ] );
    ]
