open Ff_benchmarks
module Pipeline = Fastflip.Pipeline
module Knapsack = Fastflip.Knapsack
module Valuation = Fastflip.Valuation
module Costmodel = Fastflip.Costmodel
module Campaign = Ff_inject.Campaign
module Outcome = Ff_inject.Outcome
module Eqclass = Ff_inject.Eqclass
module Fault_model = Ff_inject.Fault_model
module Table = Ff_support.Table

let unmodified run =
  match run.Experiments.results with
  | first :: _ -> first
  | [] -> failwith "Ablations: empty run"

let cost_models runs =
  let t =
    Table.create
      ~title:
        "Ablation: protection-cost models (§4.8) at v_trgt = 0.90 of FastFlip's\n\
         value mass. Cost = fraction of dynamic instructions covered by the\n\
         selection under that model."
      [
        ("Benchmark", Table.Left);
        ("Per-instruction", Table.Right);
        ("DRIFT-clustered", Table.Right);
        ("Per-kernel blocks", Table.Right);
      ]
  in
  List.iter
    (fun run ->
      let result = unmodified run in
      let ff = result.Experiments.ff in
      let valuation = ff.Pipeline.valuation in
      let golden = ff.Pipeline.golden in
      let cost_at model =
        let items = Costmodel.items model ~valuation ~golden in
        let solution = Knapsack.solve items in
        let target = Knapsack.integer_target ~total:(Knapsack.max_value solution) 0.9 in
        let selection = Knapsack.select solution ~target in
        let covered =
          Costmodel.expand_block_selection ~golden selection.Knapsack.pcs
        in
        Valuation.cost_fraction valuation ~selected:covered
      in
      Table.add_row t
        [
          run.Experiments.bench.Defs.name;
          Printf.sprintf "%.3f" (cost_at Costmodel.Per_instruction);
          Printf.sprintf "%.3f" (cost_at (Costmodel.Drift_clustered 0.3));
          Printf.sprintf "%.3f" (cost_at Costmodel.Per_kernel_block);
        ])
    runs;
  Table.render t
  ^ "\nBlock detectors buy coverage in coarse chunks: cheap when whole kernels\n\
     are vulnerable, wasteful when only a few of their instructions are.\n"

let burst ?(config = Pipeline.default_config) bench =
  let program = Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_none) in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: error-model burst width on %s (outcome mix over the\n\
            per-section campaign; the paper's model is width 1)."
           bench.Defs.name)
      [
        ("Burst", Table.Right);
        ("Masked", Table.Right);
        ("SDC", Table.Right);
        ("Detected", Table.Right);
        ("SDC-Bad value", Table.Right);
      ]
  in
  List.iter
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
            record.Fastflip.Store.rec_campaign.Campaign.s_classes)
        ff.Pipeline.sections;
      let total = float_of_int (!masked + !sdc + !detected) in
      let pct x = Printf.sprintf "%.1f%%" (100.0 *. float_of_int x /. total) in
      Table.add_row t
        [
          string_of_int burst;
          pct !masked;
          pct !sdc;
          pct !detected;
          string_of_int ff.Pipeline.valuation.Valuation.total_value;
        ])
    [ 1; 2; 4 ];
  Table.render t
  ^ "\nWider bursts mask less and corrupt more: the single-bit model is the\n\
     optimistic end of the spectrum, as the paper notes in §4.8.\n"

let pruning runs =
  let t =
    Table.create
      ~title:
        "Ablation: injection pruning (§5.1). Pilots actually injected vs error\n\
         sites covered; FastFlip's ratio folds in both equivalence-class\n\
         grouping and the static outcome prover (classes proved without\n\
         replay), the baseline's whole-trace classes prune more whenever the\n\
         schedule repeats kernels."
      [
        ("Benchmark", Table.Left);
        ("Sites |J|", Table.Right);
        ("FastFlip pilots", Table.Right);
        ("Baseline pilots", Table.Right);
        ("FF prune", Table.Right);
        ("Base prune", Table.Right);
      ]
  in
  List.iter
    (fun run ->
      let result = unmodified run in
      let ff = result.Experiments.ff in
      let ff_pilots =
        Array.fold_left
          (fun acc r -> acc + r.Fastflip.Store.rec_campaign.Campaign.s_injections)
          0 ff.Pipeline.sections
      in
      let sites =
        Array.fold_left
          (fun acc r -> acc + r.Fastflip.Store.rec_campaign.Campaign.s_sites)
          0 ff.Pipeline.sections
      in
      let base_pilots = result.Experiments.base.Fastflip.Baseline.result.Campaign.b_injections in
      let ratio pilots =
        Printf.sprintf "%.1fx" (float_of_int sites /. float_of_int (max 1 pilots))
      in
      Table.add_row t
        [
          run.Experiments.bench.Defs.name;
          string_of_int sites;
          string_of_int ff_pilots;
          string_of_int base_pilots;
          ratio ff_pilots;
          ratio base_pilots;
        ])
    runs;
  Table.render t
