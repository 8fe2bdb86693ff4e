(* Detector-synthesis subsystem tests.

   The contracts under test: synthesized detectors never fire on the
   golden run or on ε-benign perturbed runs (the zero-false-positive
   guarantee duplication-vs-detector tradeoffs rest on), coverage
   measurement is bit-identical at every pool width and caches losslessly
   through the store, the mixed Pareto front is a strictly-increasing
   frontier that dominates the pure-duplication frontier, and with
   detectors disabled the mixed optimizer degenerates to the paper's
   knapsack exactly. *)

module Site = Ff_inject.Site
module Campaign = Ff_inject.Campaign
module Golden = Ff_vm.Golden
module Machine = Ff_vm.Machine
module Value = Ff_ir.Value
module Frontend = Ff_lang.Frontend
module Pool = Ff_support.Pool
module Pipeline = Fastflip.Pipeline
module Valuation = Fastflip.Valuation
module Knapsack = Fastflip.Knapsack
module Store = Fastflip.Store
module Detector = Ff_detect.Detector
module Synthesize = Ff_detect.Synthesize
module Coverage = Ff_detect.Coverage
module Select = Ff_detect.Select
module Protect = Ff_detect.Protect

let compile src =
  match Frontend.compile src with
  | Ok p -> p
  | Error e ->
    Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

let program_src =
  {|buffer a : float[4] = { 1.5, -0.25, 2.0, 0.75 };
buffer mid : float[4] = zeros;
output buffer res : float[4] = zeros;
kernel scale(in a: float[], out mid: float[]) {
  for i in 0..4 {
    var w: float = 1.0;
    if (a[i] > 0.0) { w = 2.0; }
    mid[i] = a[i] * w + 0.5;
  }
}
kernel fold(in mid: float[], out res: float[]) {
  for i in 0..4 { res[i] = mid[i] * 0.75 - 0.5; }
}
schedule {
  call scale(a, mid);
  call fold(mid, res);
}|}

let config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 1; 31; 62 ] };
    sensitivity_samples = 40;
  }

let analysis = lazy (Pipeline.analyze config (compile program_src))

let protect ?(pool = Pool.serial) ?(enabled = true) ?backing () =
  Protect.run ~pool ?backing ~detectors_enabled:enabled config
    (Lazy.force analysis) ~target:0.9

(* --- determinism at any pool width ------------------------------------- *)

let test_pool_width_identity () =
  let serial = protect () in
  let wide =
    Pool.with_pool ~domains:4 (fun pool -> protect ~pool ())
  in
  Alcotest.(check string) "report identical" (Protect.report serial)
    (Protect.report wide);
  Alcotest.(check string) "pareto JSON identical" (Protect.pareto_json serial)
    (Protect.pareto_json wide)

(* --- zero false positives ---------------------------------------------- *)

let detectors_of (p : Protect.t) =
  match p.Protect.r_synth with
  | None -> Alcotest.fail "expected synthesis"
  | Some s -> s.Synthesize.candidates

let specs_of () =
  Array.map
    (fun (r : Store.section_record) -> r.Store.rec_sensitivity)
    (Lazy.force analysis).Pipeline.sections

(* Run one section from a perturbed entry and evaluate every candidate
   against the post-exec state — an ε-benign run generated outside the
   synthesizer, so this checks the margins, not the training loop. *)
let benign_fires golden specs candidates ~section_index ~delta =
  let section = golden.Golden.sections.(section_index) in
  let state = Array.map Array.copy section.Golden.entry_state in
  Array.iter
    (fun i ->
      Array.iteri
        (fun e v ->
          match v with
          | Value.Float x -> state.(i).(e) <- Value.Float (x +. delta)
          | Value.Int _ -> ())
        state.(i))
    specs.(section_index).Ff_sensitivity.Sensitivity.input_buffers;
  let entry_sums = Array.map Detector.sum state in
  let buffers = Array.map (fun (idx, _) -> state.(idx)) section.Golden.bindings in
  let budget = max 16 (5 * section.Golden.dyn_count) in
  let run =
    Machine.exec section.Golden.kernel ~scalars:section.Golden.scalars ~buffers
      ~budget ()
  in
  Alcotest.(check bool) "benign run finishes" true (run.Machine.status = Machine.Finished);
  Array.to_list candidates.(section_index)
  |> List.filter (fun (d : Detector.t) ->
         let entry_sum =
           match d.Detector.d_form with
           | Detector.Linear { input; _ } -> entry_sums.(input)
           | _ -> 0.0
         in
         Detector.fires d ~entry_sum state.(d.Detector.d_buffer))

let test_zero_false_positives () =
  let p = protect () in
  let candidates = detectors_of p in
  let golden = (Lazy.force analysis).Pipeline.golden in
  let specs = specs_of () in
  let n =
    Array.fold_left (fun acc a -> acc + Array.length a) 0 candidates
  in
  Alcotest.(check bool) "some detectors synthesized" true (n > 0);
  Array.iteri
    (fun si section ->
      (* golden exit: no detector may fire on the reference run *)
      let exit_state = Golden.exit_state golden si in
      Array.iter
        (fun (d : Detector.t) ->
          let entry_sum =
            match d.Detector.d_form with
            | Detector.Linear { input; _ } ->
              Detector.sum section.Golden.entry_state.(input)
            | _ -> 0.0
          in
          Alcotest.(check bool)
            (Printf.sprintf "golden: %s" (Detector.describe d))
            false
            (Detector.fires d ~entry_sum exit_state.(d.Detector.d_buffer)))
        candidates.(si);
      (* fresh ε-benign runs at the synthesis perturbation magnitude *)
      List.iter
        (fun delta ->
          match benign_fires golden specs candidates ~section_index:si ~delta with
          | [] -> ()
          | d :: _ ->
            Alcotest.failf "benign fire (delta %g): %s" delta (Detector.describe d))
        [ 0.01; -0.01; 0.005; -0.0025 ])
    golden.Golden.sections

(* --- Pareto front invariants -------------------------------------------- *)

let prop_front_monotone =
  let select = lazy (protect ()).Protect.r_select in
  QCheck2.Test.make ~count:200 ~name:"front is strict, dominant, and monotone"
    QCheck2.Gen.(pair (int_bound 200) (int_bound 200))
    (fun (a, b) ->
      let s = Lazy.force select in
      let front = s.Select.t_front in
      (* strictly increasing in both coordinates *)
      Array.iteri
        (fun i p ->
          if i > 0 then begin
            assert (p.Select.p_value > front.(i - 1).Select.p_value);
            assert (p.Select.p_cost > front.(i - 1).Select.p_cost)
          end)
        front;
      assert (front.(0).Select.p_value = 0 && front.(0).Select.p_cost = 0);
      (* dominates the pure-duplication frontier *)
      List.iter
        (fun (v, c) ->
          let cheapest =
            Array.fold_left
              (fun acc p ->
                if p.Select.p_value >= v then min acc p.Select.p_cost else acc)
              max_int front
          in
          assert (cheapest <= c))
        (Select.pure_points s);
      (* selection_at reconstructs its frontier point exactly, and cost
         is monotone in the target *)
      let total = s.Select.t_total_value in
      let t1 = a * total / 200 and t2 = b * total / 200 in
      let lo = min t1 t2 and hi = max t1 t2 in
      let sel_lo = Select.selection_at s ~target:lo in
      let sel_hi = Select.selection_at s ~target:hi in
      assert (sel_lo.Select.sel_value >= lo);
      assert (sel_hi.Select.sel_value >= hi);
      assert (sel_lo.Select.sel_cost <= sel_hi.Select.sel_cost);
      assert (
        Array.exists
          (fun p ->
            p.Select.p_value = sel_hi.Select.sel_value
            && p.Select.p_cost = sel_hi.Select.sel_cost)
          front);
      true)

let prop_knapsack_points_exact =
  let gen_items =
    QCheck2.Gen.(
      list_size (int_range 1 8)
        (pair (int_bound 12) (int_range 1 30)))
  in
  QCheck2.Test.make ~count:200 ~name:"knapsack frontier points are achieved exactly"
    gen_items (fun raw ->
      let items =
        List.mapi
          (fun i (value, cost) ->
            { Knapsack.pc = { Site.kernel = 0; instr = i }; value; cost })
          raw
      in
      let s = Knapsack.solve items in
      let pts = Knapsack.points s in
      let rec strict = function
        | (v1, c1) :: ((v2, c2) :: _ as rest) ->
          v1 < v2 && c1 < c2 && strict rest
        | _ -> true
      in
      assert (strict pts);
      assert (List.hd pts = (0, 0));
      List.iter
        (fun (v, c) ->
          let sel = Knapsack.select s ~target:v in
          assert (sel.Knapsack.value = v);
          assert (sel.Knapsack.cost = c))
        pts;
      true)

(* --- disabled detectors degenerate to the pure knapsack ----------------- *)

let test_disabled_is_pure () =
  let p = protect ~enabled:false () in
  Alcotest.(check int) "mask empty" 0 p.Protect.r_mixed.Select.sel_mask;
  Alcotest.(check int) "same value" p.Protect.r_pure.Knapsack.value
    p.Protect.r_mixed.Select.sel_value;
  Alcotest.(check int) "same cost" p.Protect.r_pure.Knapsack.cost
    p.Protect.r_mixed.Select.sel_cost;
  Alcotest.(check (list (pair int int)))
    "front = pure frontier"
    (Select.pure_points p.Protect.r_select)
    (Array.to_list
       (Array.map
          (fun pt -> (pt.Select.p_value, pt.Select.p_cost))
          p.Protect.r_select.Select.t_front))

(* --- coverage caching ---------------------------------------------------- *)

let test_coverage_cache_roundtrip () =
  let a = Lazy.force analysis in
  let golden = a.Pipeline.golden in
  let p = protect () in
  let candidates = detectors_of p in
  let si =
    match
      List.find_opt
        (fun si ->
          Array.length candidates.(si) > 0
          && Valuation.bad_labels_in_section a.Pipeline.valuation ~section:si <> [])
        (List.init (Array.length golden.Golden.sections) Fun.id)
    with
    | Some si -> si
    | None -> Alcotest.fail "no section with detectors and bad classes"
  in
  let classes =
    List.map
      (fun l -> l.Valuation.cls)
      (Valuation.bad_labels_in_section a.Pipeline.valuation ~section:si)
  in
  let store = Store.create () in
  let backing = Pipeline.backing_of_store store in
  let fresh =
    Coverage.measure ~backing config golden ~section_index:si
      ~detectors:candidates.(si) ~classes
  in
  let cached =
    Coverage.measure ~backing config golden ~section_index:si
      ~detectors:candidates.(si) ~classes
  in
  Alcotest.(check bool) "first is measured" false fresh.Coverage.c_cached;
  Alcotest.(check bool) "second is cached" true cached.Coverage.c_cached;
  Alcotest.(check int) "no replays on hit" 0 cached.Coverage.c_replays;
  Alcotest.(check (array int))
    "identical masks"
    (Array.map snd fresh.Coverage.c_classes)
    (Array.map snd cached.Coverage.c_classes);
  Alcotest.(check (array int)) "identical covered" fresh.Coverage.c_covered
    cached.Coverage.c_covered;
  (* a different detector set misses: disjoint key space, no false hits *)
  let subset = Array.sub candidates.(si) 0 (Array.length candidates.(si) - 1) in
  if Array.length subset > 0 then begin
    let other =
      Coverage.measure ~backing config golden ~section_index:si ~detectors:subset
        ~classes
    in
    Alcotest.(check bool) "different spec misses" false other.Coverage.c_cached
  end

(* --- mixed beats or matches pure everywhere ----------------------------- *)

let test_mixed_never_worse () =
  let p = protect () in
  Alcotest.(check bool) "mixed value reaches target" true
    (p.Protect.r_mixed.Select.sel_value >= p.Protect.r_pure.Knapsack.value);
  Alcotest.(check bool) "mixed cost never exceeds pure" true
    (p.Protect.r_mixed.Select.sel_cost <= p.Protect.r_pure.Knapsack.cost)

(* --- focus parsing ------------------------------------------------------- *)

let test_focus_of_json () =
  let json =
    {|{ "schema": "fastflip.security/1", "findings": [
        {"kernel": 0, "instr": 3, "kind": "compute"},
        {"kernel": 1, "instr": 7, "kind": "guard"} ] }|}
  in
  let focus text =
    Result.map
      (List.map (fun pc -> (pc.Site.kernel, pc.Site.instr)))
      (Synthesize.focus_of_json text)
  in
  let result = Alcotest.(result (list (pair int int)) string) in
  Alcotest.check result "pcs extracted" (Ok [ (0, 3); (1, 7) ]) (focus json);
  Alcotest.check result "garbage is refused" (Error "byte 0: invalid literal")
    (focus "not json at all");
  Alcotest.check result "a truncated export is refused"
    (Error "byte 52: unexpected end of input")
    (focus (String.sub json 0 52));
  Alcotest.check result "another schema is refused"
    (Error "schema \"fastflip.pareto/1\" is not fastflip.security/1")
    (focus {|{ "schema": "fastflip.pareto/1", "findings": [] }|});
  Alcotest.check result "a finding needs its pc"
    (Error "a finding without integer \"kernel\" and \"instr\"")
    (focus {|{ "schema": "fastflip.security/1", "findings": [ { "kernel": 0 } ] }|})

let () =
  Alcotest.run "detect"
    [
      ( "determinism",
        [
          Alcotest.test_case "protect identical at pool widths 1 and 4" `Quick
            test_pool_width_identity;
        ] );
      ( "false-positives",
        [
          Alcotest.test_case "no fires on golden or benign perturbed runs"
            `Quick test_zero_false_positives;
        ] );
      ( "pareto",
        [
          QCheck_alcotest.to_alcotest prop_front_monotone;
          QCheck_alcotest.to_alcotest prop_knapsack_points_exact;
          Alcotest.test_case "disabled detectors = pure knapsack" `Quick
            test_disabled_is_pure;
          Alcotest.test_case "mixed never worse than pure" `Quick
            test_mixed_never_worse;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "store round-trip is lossless" `Quick
            test_coverage_cache_roundtrip;
        ] );
      ( "seeding",
        [ Alcotest.test_case "focus_of_json" `Quick test_focus_of_json ] );
    ]
