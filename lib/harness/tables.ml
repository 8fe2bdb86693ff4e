open Ff_benchmarks
module Json = Ff_support.Json
module Stats = Ff_support.Stats
module Pipeline = Fastflip.Pipeline
module Baseline = Fastflip.Baseline
module Compare = Fastflip.Compare
module Knapsack = Fastflip.Knapsack
module Valuation = Fastflip.Valuation
module Costmodel = Fastflip.Costmodel
module Store = Fastflip.Store
module Campaign = Ff_inject.Campaign
module Outcome = Ff_inject.Outcome
module Eqclass = Ff_inject.Eqclass
module Fault_model = Ff_inject.Fault_model
open Json

type field = string * Json.t

let objects rows = Arr (List.map (fun row -> Obj row) rows)

let unmodified run =
  match run.Experiments.results with
  | first :: _ -> first
  | [] -> failwith "Tables: benchmark run has no results"

let benchmark run = ("benchmark", Str run.Experiments.bench.Defs.name)
let version result = ("version", Str (Defs.version_name result.Experiments.version))

(* Every (run, version) pair in table order. *)
let versions runs =
  List.concat_map
    (fun run -> List.map (fun result -> (run, result)) run.Experiments.results)
    runs

(* A per-target column: [at "value" 0.9] is "value@0.90". *)
let at key target = Printf.sprintf "%s@%.2f" key target

(* Error sites |J| the section campaigns covered, under the bits the
   analysis was configured with. *)
let sites ff =
  Array.fold_left
    (fun acc r -> acc + r.Store.rec_campaign.Campaign.s_sites)
    0 ff.Pipeline.sections

let table1 runs =
  ( "Table 1. Benchmarks (error sites under the configured bit subset).\n\
     trace = dynamic instructions of the golden run; sites_k = # error sites\n\
     (|J|), in thousands.",
    [
      ( "rows",
        objects
          (List.map
             (fun run ->
               let ff = (unmodified run).Experiments.ff in
               [
                 benchmark run;
                 ("input_size", Str run.Experiments.bench.Defs.input_desc);
                 ("sections", Str run.Experiments.bench.Defs.sections_desc);
                 ("trace", Int ff.Pipeline.golden.Ff_vm.Golden.total_dyn);
                 ("sites_k", Float (float_of_int (sites ff) /. 1000.0, 1));
               ])
             runs) );
    ] )

let table2 ?(epsilon_label = "eps = 0 (all SDCs are SDC-Bad)") row_fn runs =
  let rows =
    List.map (fun (run, result) -> (run, result, row_fn run result)) (versions runs)
  in
  let cells (run, result, targets) =
    benchmark run :: version result
    :: List.concat_map
         (fun row ->
           let t = row.Compare.target in
           [
             (at "value" t, Float (row.Compare.achieved, 3));
             (at "acceptable" t, Bool row.Compare.acceptable);
             (at "cost" t, Float (row.Compare.ff_cost, 3));
             (at "cost_diff" t, Float (row.Compare.cost_diff, 3));
           ])
         targets
  in
  let geomean target =
    let costs =
      List.concat_map
        (fun (_, _, targets) ->
          List.filter_map
            (fun row ->
              if row.Compare.target = target && row.Compare.ff_cost > 0.0 then
                Some row.Compare.ff_cost
              else None)
            targets)
        rows
    in
    ( Printf.sprintf "geomean cost @%.2f" target,
      Float ((if costs = [] then 0.0 else Stats.geomean costs), 3) )
  in
  ( Printf.sprintf
      "Table 2. FastFlip vs Approxilyzer-style baseline utility, %s.\n\
       value@T = achieved value of FastFlip's selection under ground-truth labels\n\
       (acceptable@T = within FastFlip's value error range); cost@T = FastFlip's\n\
       protection cost as a fraction of dynamic instructions (cost_diff@T = excess\n\
       over the baseline's selection). geomean cost @T is over every version's\n\
       positive cost@T."
      epsilon_label,
    ("rows", objects (List.map cells rows))
    :: List.map geomean Experiments.standard_targets )

let table3 runs =
  let rows = versions runs in
  let modified =
    List.filter_map
      (fun (_, result) ->
        if result.Experiments.version = Defs.V_none then None
        else Some (Experiments.speedup result))
      rows
  in
  let summary f = match modified with [] -> 0.0 | s -> f s in
  let mega work = Float (float_of_int work /. 1.0e6, 1) in
  ( "Table 3. Analysis work comparison (mega-instructions simulated; the\n\
     deterministic stand-in for the paper's core-hours).\n\
     speedup = baseline over FastFlip work; reused = sections taken from the\n\
     store; geomean speedup and max are over the modified versions.",
    [
      ( "rows",
        objects
          (List.map
             (fun (run, result) ->
               let ff = result.Experiments.ff in
               [
                 benchmark run;
                 version result;
                 ("fastflip_mi", mega result.Experiments.ff_work);
                 ("baseline_mi", mega result.Experiments.base_work);
                 ("speedup", Float (Experiments.speedup result, 1));
                 ("reused", Int ff.Pipeline.sections_reused);
                 ( "sections",
                   Int (ff.Pipeline.sections_reused + ff.Pipeline.sections_analyzed) );
               ])
             rows) );
      ("geomean speedup", Float (summary Stats.geomean, 1));
      ("max", Float (summary (fun s -> snd (Stats.min_max s)), 1));
    ] )

let table4 campipe_run =
  ( "Table 4. Campipe utility WITHOUT target adjustment (acceptable@T false =\n\
     outside the value error range; inter-section masking in the clamping\n\
     tone-map makes FastFlip's labels conservative, cf. paper Section 6.3).",
    [
      ( "rows",
        objects
          (List.map
             (fun result ->
               benchmark campipe_run :: version result
               :: List.concat_map
                    (fun row ->
                      [
                        (at "value" row.Compare.target, Float (row.Compare.achieved, 3));
                        (at "acceptable" row.Compare.target, Bool row.Compare.acceptable);
                      ])
                    (Experiments.utility_rows ~adjusted:false campipe_run result))
             campipe_run.Experiments.results) );
    ] )

let ascii_curve ~width ~height ~lo ~hi series =
  (* series: (label char, (x, y) list); x in [0,1] order assumed shared *)
  let grid = Array.make_matrix height width ' ' in
  List.iter
    (fun (mark, points) ->
      let n = List.length points in
      List.iteri
        (fun i (_, y) ->
          let col = if n <= 1 then 0 else i * (width - 1) / (n - 1) in
          let frac = (y -. lo) /. (hi -. lo) in
          let row = int_of_float (Float.round (frac *. float_of_int (height - 1))) in
          let row = max 0 (min (height - 1) row) in
          let row = height - 1 - row in
          if grid.(row).(col) = ' ' || grid.(row).(col) = mark then
            grid.(row).(col) <- mark
          else grid.(row).(col) <- '#')
        points)
    series;
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i row ->
      let y = hi -. ((hi -. lo) *. float_of_int i /. float_of_int (height - 1)) in
      Buffer.add_string buf (Printf.sprintf "%6.3f |" y);
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf ("       +" ^ String.make width '-' ^ "\n");
  Buffer.contents buf

let figure1 ?targets run =
  let result = unmodified run in
  let targets =
    match targets with
    | Some t -> t
    | None -> List.init 21 (fun i -> 0.90 +. (0.005 *. float_of_int i))
  in
  let ff = result.Experiments.ff in
  let base = result.Experiments.base in
  let rows =
    List.map
      (fun target ->
        let used_target =
          Fastflip.Adjust.compute_adjusted_target ~ff
            ~ground_truth:base.Baseline.valuation ~target
        in
        Compare.row ~ff ~base ~inaccuracy:run.Experiments.bench.Defs.inaccuracy ~target
          ~used_target)
      targets
  in
  let value_series =
    [
      ('v', List.map (fun r -> (r.Compare.target, r.Compare.achieved)) rows);
      ('.', List.map (fun r -> (r.Compare.target, r.Compare.target)) rows);
    ]
  in
  let costs = List.concat_map (fun r -> [ r.Compare.ff_cost; r.Compare.base_cost ]) rows in
  let lo, hi = Stats.min_max costs in
  let pad = Float.max 0.01 ((hi -. lo) *. 0.1) in
  let cost_series =
    [
      ('f', List.map (fun r -> (r.Compare.target, r.Compare.ff_cost)) rows);
      ('b', List.map (fun r -> (r.Compare.target, r.Compare.base_cost)) rows);
    ]
  in
  ( String.concat ""
      [
        Printf.sprintf
          "Figure 1 (%s, unmodified). End-to-end SDC specification (Equation 2 form):\n"
          run.Experiments.bench.Defs.name;
        Format.asprintf "%a\n" Ff_chisel.Propagate.pp ff.Pipeline.propagation;
        "\nTop: achieved value vs target (marker v; the diagonal is the target itself).\n";
        ascii_curve ~width:63 ~height:11 ~lo:0.88 ~hi:1.0 value_series;
        "\nBottom: protection cost vs target (f = FastFlip, b = baseline, # = overlap).\n";
        ascii_curve ~width:63 ~height:13 ~lo:(lo -. pad) ~hi:(hi +. pad) cost_series;
        "\nThe series: achieved value, FastFlip's and the baseline's protection\n\
         cost at each target.";
      ],
    [
      ( "series",
        objects
          (List.map
             (fun row ->
               [
                 ("target", Float (row.Compare.target, 3));
                 ("achieved", Float (row.Compare.achieved, 4));
                 ("ff_cost", Float (row.Compare.ff_cost, 4));
                 ("base_cost", Float (row.Compare.base_cost, 4));
               ])
             rows) );
    ] )

(* --- ablations of the design choices DESIGN.md calls out ------------------ *)

(* How the §4.8 protection-cost model changes the cost of hitting the same
   target. *)
let cost_models runs =
  List.map
    (fun run ->
      let ff = (unmodified run).Experiments.ff in
      let valuation = ff.Pipeline.valuation in
      let golden = ff.Pipeline.golden in
      let cost_at model =
        let items = Costmodel.items model ~valuation ~golden in
        let solution = Knapsack.solve items in
        let target = Knapsack.integer_target ~total:(Knapsack.max_value solution) 0.9 in
        let selection = Knapsack.select solution ~target in
        let covered = Costmodel.expand_block_selection ~golden selection.Knapsack.pcs in
        Float (Valuation.cost_fraction valuation ~selected:covered, 3)
      in
      [
        benchmark run;
        ("per_instruction", cost_at Costmodel.Per_instruction);
        ("drift_clustered", cost_at (Costmodel.Drift_clustered 0.3));
        ("per_kernel_blocks", cost_at Costmodel.Per_kernel_block);
      ])
    runs

(* The single-event-upset assumption: the outcome mix and SDC-Bad value
   mass under 1-, 2- and 4-bit burst flips. *)
let burst ~config bench =
  let program = Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_none) in
  List.map
    (fun burst ->
      let config =
        {
          config with
          Pipeline.campaign =
            {
              config.Pipeline.campaign with
              Campaign.model = Fault_model.Bitflip { burst };
            };
        }
      in
      let ff = Pipeline.analyze config program in
      let masked = ref 0 and sdc = ref 0 and detected = ref 0 in
      Array.iter
        (fun record ->
          Array.iter
            (fun (cls, outcome) ->
              let weight = Eqclass.size cls in
              match (outcome : Outcome.section_outcome) with
              | Outcome.S_detected _ -> detected := !detected + weight
              | Outcome.S_sdc _ when Outcome.section_is_masked outcome ->
                masked := !masked + weight
              | Outcome.S_sdc _ -> sdc := !sdc + weight)
            record.Store.rec_campaign.Campaign.s_classes)
        ff.Pipeline.sections;
      let total = float_of_int (!masked + !sdc + !detected) in
      let pct x = Float (100.0 *. float_of_int x /. total, 1) in
      [
        ("burst", Int burst);
        ("masked_pct", pct !masked);
        ("sdc_pct", pct !sdc);
        ("detected_pct", pct !detected);
        ("sdc_bad_value", Int ff.Pipeline.valuation.Valuation.total_value);
      ])
    [ 1; 2; 4 ]

(* What equivalence-class pruning buys: pilots injected vs sites covered. *)
let pruning runs =
  List.map
    (fun run ->
      let result = unmodified run in
      let ff = result.Experiments.ff in
      let ff_pilots =
        Array.fold_left
          (fun acc r -> acc + r.Store.rec_campaign.Campaign.s_injections)
          0 ff.Pipeline.sections
      in
      let sites = sites ff in
      let base_pilots = result.Experiments.base.Baseline.result.Campaign.b_injections in
      let ratio pilots = Float (float_of_int sites /. float_of_int (max 1 pilots), 1) in
      [
        benchmark run;
        ("sites", Int sites);
        ("fastflip_pilots", Int ff_pilots);
        ("baseline_pilots", Int base_pilots);
        ("fastflip_prune", ratio ff_pilots);
        ("baseline_prune", ratio base_pilots);
      ])
    runs

let ablations ~config ~burst_on runs =
  ( Printf.sprintf
      "Ablation: protection-cost models (§4.8) at v_trgt = 0.90 of FastFlip's\n\
       value mass. Cost = fraction of dynamic instructions covered by the\n\
       selection under that model.\n\
       Block detectors buy coverage in coarse chunks: cheap when whole kernels\n\
       are vulnerable, wasteful when only a few of their instructions are.\n\n\
       Ablation: error-model burst width on %s (outcome mix over the\n\
       per-section campaign; the paper's model is width 1).\n\
       Wider bursts mask less and corrupt more: the single-bit model is the\n\
       optimistic end of the spectrum, as the paper notes in §4.8.\n\n\
       Ablation: injection pruning (§5.1). Pilots actually injected vs error\n\
       sites covered; FastFlip's ratio folds in both equivalence-class\n\
       grouping and the static outcome prover (classes proved without\n\
       replay), the baseline's whole-trace classes prune more whenever the\n\
       schedule repeats kernels."
      burst_on.Defs.name,
    [
      ("cost_models", objects (cost_models runs));
      ("burst", objects (burst ~config burst_on));
      ("pruning", objects (pruning runs));
    ] )
