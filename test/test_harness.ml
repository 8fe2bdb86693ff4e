(* Harness tests: the experiment runner and the paper's tables and figure,
   read by key, on a quick configuration. *)

module Site = Ff_inject.Site
module Campaign = Ff_inject.Campaign
module Pipeline = Fastflip.Pipeline
module Json = Ff_support.Json
open Ff_harness

let quick_config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 2; 40; 63 ] };
    sensitivity_samples = 50;
  }

let bscholes = Option.get (Ff_benchmarks.Registry.find "BScholes")
let bscholes_run = lazy (Experiments.run_benchmark ~config:quick_config bscholes)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub haystack i nl) needle || go (i + 1))
  in
  nl = 0 || go 0

(* Reading an artifact's fields by key. *)

let rows key fields =
  match List.assoc_opt key fields with
  | Some (Json.Arr items) ->
    List.map
      (function
        | Json.Obj row -> row
        | _ -> Alcotest.failf "%s: a row is not an object" key)
      items
  | _ -> Alcotest.failf "%s is not a table" key

let number key row =
  match List.assoc_opt key row with
  | Some (Json.Float (x, _)) -> x
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "%s is not a number" key

let text key row =
  match List.assoc_opt key row with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "%s is not a string" key

let ablations =
  lazy
    (Tables.ablations ~config:quick_config ~burst_on:bscholes
       [ Lazy.force bscholes_run ])

let version_named run name =
  List.find
    (fun r -> String.equal (Ff_benchmarks.Defs.version_name r.Experiments.version) name)
    run.Experiments.results

let test_run_benchmark_shape () =
  let run = Lazy.force bscholes_run in
  Alcotest.(check int) "three versions" 3 (List.length run.Experiments.results);
  Alcotest.(check int) "three adjusted targets" 3
    (List.length run.Experiments.adjusted_targets);
  List.iter
    (fun (target, adjusted) ->
      Alcotest.(check bool) "targets in [0,1]" true
        (target >= 0.0 && target <= 1.0 && adjusted >= 0.0 && adjusted <= 1.0))
    run.Experiments.adjusted_targets

let test_utility_rows_arity () =
  let run = Lazy.force bscholes_run in
  List.iter
    (fun result ->
      Alcotest.(check int) "three rows per version" 3
        (List.length (Experiments.utility_rows run result));
      Alcotest.(check int) "three unadjusted rows" 3
        (List.length (Experiments.utility_rows ~adjusted:false run result)))
    run.Experiments.results;
  let relabeled = Experiments.at_epsilon ~epsilon:0.01 run in
  List.iter
    (fun result ->
      Alcotest.(check int) "three epsilon rows" 3
        (List.length (Experiments.utility_rows relabeled result)))
    relabeled.Experiments.results;
  (* Relabeling at the run's own ε changes nothing. *)
  let same = Experiments.at_epsilon ~epsilon:quick_config.Pipeline.epsilon run in
  Alcotest.(check bool) "same adjusted targets" true
    (same.Experiments.adjusted_targets = run.Experiments.adjusted_targets);
  List.iter2
    (fun r s ->
      Alcotest.(check bool) "same rows" true
        (Experiments.utility_rows run r = Experiments.utility_rows same s))
    run.Experiments.results same.Experiments.results

let test_speedup_positive () =
  let run = Lazy.force bscholes_run in
  List.iter
    (fun r -> Alcotest.(check bool) "speedup > 0" true (Experiments.speedup r > 0.0))
    run.Experiments.results

let test_table1_renders () =
  let run = Lazy.force bscholes_run in
  let title, fields = Tables.table1 [ run ] in
  Alcotest.(check bool) "title" true (contains title "Table 1");
  match rows "rows" fields with
  | [ row ] ->
    Alcotest.(check string) "benchmark" "BScholes" (text "benchmark" row);
    Alcotest.(check string) "input size" "2 options" (text "input_size" row);
    Alcotest.(check (float 0.0)) "trace is the golden run's"
      (float_of_int
         (List.hd run.Experiments.results).Experiments.ff.Pipeline.golden
           .Ff_vm.Golden.total_dyn)
      (number "trace" row)
  | rows -> Alcotest.failf "%d rows for one benchmark" (List.length rows)

(* Table 1 counts sites under the run's own bits: the pruning ablation's
   count for the same runs, and the site enumeration under the 3 bits. *)
let test_table1_sites () =
  let run = Lazy.force bscholes_run in
  let sites_k = number "sites_k" (List.hd (rows "rows" (snd (Tables.table1 [ run ])))) in
  let sites = number "sites" (List.hd (rows "pruning" (snd (Lazy.force ablations)))) in
  Alcotest.(check (float 0.0)) "table 1 sites = pruning sites" sites
    (Float.round (sites_k *. 1000.0));
  let golden = (List.hd run.Experiments.results).Experiments.ff.Pipeline.golden in
  let enumerated =
    Array.fold_left
      (fun acc section ->
        acc + Site.count_section section quick_config.Pipeline.campaign.Campaign.bits)
      0 golden.Ff_vm.Golden.sections
  in
  Alcotest.(check (float 0.0)) "sites under the configured bits" (float_of_int enumerated)
    sites

let test_table2_renders () =
  let run = Lazy.force bscholes_run in
  let _, fields =
    Tables.table2 (fun run result -> Experiments.utility_rows run result) [ run ]
  in
  let table = rows "rows" fields in
  Alcotest.(check (list string)) "one row per version" [ "None"; "Small"; "Large" ]
    (List.map (text "version") table);
  List.iter
    (fun target ->
      let key = Printf.sprintf "cost@%.2f" target in
      let costs = List.filter (fun c -> c > 0.0) (List.map (number key) table) in
      Alcotest.(check (float 0.0)) ("geomean of " ^ key) (Ff_support.Stats.geomean costs)
        (number (Printf.sprintf "geomean cost @%.2f" target) fields))
    Experiments.standard_targets

let test_table3_renders () =
  let run = Lazy.force bscholes_run in
  let _, fields = Tables.table3 [ run ] in
  let table = rows "rows" fields in
  Alcotest.(check int) "one row per version" 3 (List.length table);
  List.iter
    (fun row ->
      let r = version_named run (text "version" row) in
      Alcotest.(check (float 0.0)) "speedup = base_work / ff_work"
        (float_of_int r.Experiments.base_work /. float_of_int r.Experiments.ff_work)
        (number "speedup" row))
    table;
  let modified =
    List.filter_map
      (fun row ->
        if List.mem (text "version" row) [ "Small"; "Large" ] then
          Some (number "speedup" row)
        else None)
      table
  in
  Alcotest.(check (float 0.0)) "geomean speedup over Small and Large"
    (Ff_support.Stats.geomean modified) (number "geomean speedup" fields);
  Alcotest.(check (float 0.0)) "max over Small and Large"
    (List.fold_left Float.max 0.0 modified) (number "max" fields)

let test_table4_renders () =
  let run = Lazy.force bscholes_run in
  let _, fields = Tables.table4 run in
  List.iter2
    (fun row result ->
      List.iter
        (fun r ->
          Alcotest.(check (float 0.0)) "unadjusted achieved value"
            r.Fastflip.Compare.achieved
            (number (Printf.sprintf "value@%.2f" r.Fastflip.Compare.target) row))
        (Experiments.utility_rows ~adjusted:false run result))
    (rows "rows" fields) run.Experiments.results

let test_figure1_renders () =
  let targets = [ 0.90; 0.95; 1.0 ] in
  let title, fields = Tables.figure1 ~targets (Lazy.force bscholes_run) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in the title") true (contains title needle))
    [ "Figure 1"; "Equation 2"; "phi(s" ];
  Alcotest.(check (list (float 0.0))) "one row per requested target" targets
    (List.map (number "target") (rows "series" fields))

let test_ablation_renderers () =
  let _, fields = Lazy.force ablations in
  List.iter
    (fun row ->
      Alcotest.(check bool) "block detectors cost at least duplication" true
        (number "per_kernel_blocks" row >= number "per_instruction" row))
    (rows "cost_models" fields);
  let burst = rows "burst" fields in
  Alcotest.(check (list (float 0.0))) "burst widths" [ 1.0; 2.0; 4.0 ]
    (List.map (number "burst") burst);
  List.iter
    (fun row ->
      let total =
        number "masked_pct" row +. number "sdc_pct" row +. number "detected_pct" row
      in
      Alcotest.(check (float 1e-9)) "outcome mix sums to 100%" 100.0 total)
    burst;
  List.iter
    (fun row ->
      Alcotest.(check bool) "pilots at most sites" true
        (number "fastflip_pilots" row <= number "sites" row))
    (rows "pruning" fields)

let () =
  Alcotest.run "harness"
    [
      ( "experiments",
        [
          Alcotest.test_case "run shape" `Quick test_run_benchmark_shape;
          Alcotest.test_case "utility rows" `Quick test_utility_rows_arity;
          Alcotest.test_case "speedup" `Quick test_speedup_positive;
        ] );
      ( "renderers",
        [
          Alcotest.test_case "table1" `Quick test_table1_renders;
          Alcotest.test_case "table2" `Quick test_table2_renders;
          Alcotest.test_case "table3" `Quick test_table3_renders;
          Alcotest.test_case "table4" `Quick test_table4_renders;
          Alcotest.test_case "figure1" `Quick test_figure1_renders;
          Alcotest.test_case "ablations" `Quick test_ablation_renderers;
          Alcotest.test_case "table1 sites" `Quick test_table1_sites;
        ] );
    ]
