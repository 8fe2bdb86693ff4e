(* FastFlip core tests: valuation (Algorithm 2), knapsack selection
   (checked against brute force with qcheck), the incremental store,
   target adjustment, and utility comparison. *)

module Site = Ff_inject.Site
module Campaign = Ff_inject.Campaign
module Golden = Ff_vm.Golden
module Frontend = Ff_lang.Frontend
open Fastflip

let pc k i = { Site.kernel = k; instr = i }

(* --- knapsack ------------------------------------------------------------- *)

let item k i value cost = { Knapsack.pc = pc k i; value; cost }

let test_knapsack_empty_target () =
  let sol = Knapsack.solve [ item 0 0 5 10 ] in
  let sel = Knapsack.select sol ~target:0 in
  Alcotest.(check (list int)) "empty selection" []
    (List.map (fun p -> p.Site.instr) sel.Knapsack.pcs)

let test_knapsack_prefers_cheap () =
  let items = [ item 0 0 10 100; item 0 1 10 1 ] in
  let sol = Knapsack.solve items in
  let sel = Knapsack.select sol ~target:10 in
  Alcotest.(check int) "picks the cheap item" 1 sel.Knapsack.cost;
  Alcotest.(check int) "value covered" 10 sel.Knapsack.value

let test_knapsack_combines () =
  let items = [ item 0 0 6 3; item 0 1 5 3; item 0 2 4 100 ] in
  let sol = Knapsack.solve items in
  let sel = Knapsack.select sol ~target:11 in
  Alcotest.(check int) "two cheap items" 6 sel.Knapsack.cost;
  Alcotest.(check int) "value" 11 sel.Knapsack.value

let test_knapsack_target_above_max () =
  let items = [ item 0 0 3 1; item 0 1 4 1 ] in
  let sol = Knapsack.solve items in
  Alcotest.(check int) "max value" 7 (Knapsack.max_value sol);
  let sel = Knapsack.select sol ~target:100 in
  Alcotest.(check int) "clamps to everything" 7 sel.Knapsack.value

let test_knapsack_zero_value_items_ignored () =
  let items = [ item 0 0 0 1; item 0 1 5 2 ] in
  let sol = Knapsack.solve items in
  let sel = Knapsack.select sol ~target:5 in
  Alcotest.(check int) "only the valued item" 2 sel.Knapsack.cost

(* Brute force: enumerate all subsets. *)
let brute_force (items : Knapsack.item list) target =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    let value = ref 0 and cost = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        value := !value + arr.(i).Knapsack.value;
        cost := !cost + arr.(i).Knapsack.cost
      end
    done;
    if !value >= target && !cost < !best then best := !cost
  done;
  !best

let gen_items =
  QCheck2.Gen.(
    list_size (int_range 1 10)
      (map2
         (fun v c -> { Knapsack.pc = pc 0 (Random.State.bits (Random.State.make [|v; c|]) land 0xFFFF); value = v mod 20; cost = 1 + (c mod 30) })
         (int_range 0 1000) (int_range 0 1000)))

let prop_knapsack_optimal =
  QCheck2.Test.make ~count:120 ~name:"DP matches brute force"
    QCheck2.Gen.(pair gen_items (int_range 0 60))
    (fun (raw_items, target) ->
      (* Deduplicate pcs: the solver treats the pc as an identifier. *)
      let items =
        List.mapi (fun i it -> { it with Knapsack.pc = pc 0 i }) raw_items
      in
      let sol = Knapsack.solve items in
      let target = min target (Knapsack.max_value sol) in
      let sel = Knapsack.select sol ~target in
      let best = brute_force (List.filter (fun (i : Knapsack.item) -> i.Knapsack.value > 0) items) target in
      sel.Knapsack.value >= target && sel.Knapsack.cost = (if best = max_int then 0 else best))

let prop_knapsack_selection_consistent =
  QCheck2.Test.make ~count:120 ~name:"selection sums match reported totals" gen_items
    (fun raw_items ->
      let items = List.mapi (fun i it -> { it with Knapsack.pc = pc 0 i }) raw_items in
      let sol = Knapsack.solve items in
      let target = Knapsack.max_value sol / 2 in
      let sel = Knapsack.select sol ~target in
      let lookup p : Knapsack.item = List.find (fun (i : Knapsack.item) -> i.Knapsack.pc = p) items in
      let value = List.fold_left (fun acc p -> acc + (lookup p).Knapsack.value) 0 sel.Knapsack.pcs in
      let cost = List.fold_left (fun acc p -> acc + (lookup p).Knapsack.cost) 0 sel.Knapsack.pcs in
      value = sel.Knapsack.value && cost = sel.Knapsack.cost)

let prop_knapsack_cost_monotone =
  QCheck2.Test.make ~count:60 ~name:"cost is monotone in the target" gen_items
    (fun raw_items ->
      let items = List.mapi (fun i it -> { it with Knapsack.pc = pc 0 i }) raw_items in
      let sol = Knapsack.solve items in
      let total = Knapsack.max_value sol in
      let costs =
        List.init 10 (fun i ->
            (Knapsack.select sol ~target:(total * i / 10)).Knapsack.cost)
      in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a <= b && ascending rest
        | _ -> true
      in
      ascending costs)

(* The full-width DP over the value dimension: every item sweeps all of
   1..Σvalue through [max], into a rectangular take table. Kept only as
   the oracle the Pareto-list solve must match bit for bit. *)
module Rect = struct
  type t = {
    items : Knapsack.item array;
    dp : int array;
    take : Bytes.t array;
    total_value : int;
  }

  let infinite_cost = max_int / 2

  let bit_get bytes v = Char.code (Bytes.get bytes (v lsr 3)) land (1 lsl (v land 7)) <> 0

  let bit_set bytes v =
    let i = v lsr 3 in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lor (1 lsl (v land 7))))

  let solve items =
    let items =
      List.filter (fun (item : Knapsack.item) -> item.Knapsack.value > 0) items
      |> List.sort (fun (a : Knapsack.item) b -> Site.compare_pc a.Knapsack.pc b.Knapsack.pc)
      |> Array.of_list
    in
    let total_value =
      Array.fold_left (fun acc (item : Knapsack.item) -> acc + item.Knapsack.value) 0 items
    in
    let dp = Array.make (total_value + 1) infinite_cost in
    dp.(0) <- 0;
    let bytes_per_row = (total_value / 8) + 1 in
    let take = Array.map (fun _ -> Bytes.make bytes_per_row '\000') items in
    Array.iteri
      (fun i (item : Knapsack.item) ->
        let row = take.(i) in
        for v = total_value downto 1 do
          let prev = dp.(max 0 (v - item.Knapsack.value)) in
          if prev < infinite_cost then begin
            let candidate = prev + item.Knapsack.cost in
            if candidate < dp.(v) then begin
              dp.(v) <- candidate;
              bit_set row v
            end
          end
        done)
      items;
    { items; dp; take; total_value }

  let select s ~target : Knapsack.selection =
    if target <= 0 then { Knapsack.pcs = []; value = 0; cost = 0 }
    else begin
      let target = min target s.total_value in
      let v = ref target and pcs = ref [] and value = ref 0 and cost = ref 0 in
      for i = Array.length s.items - 1 downto 0 do
        if !v > 0 && bit_get s.take.(i) !v then begin
          let item = s.items.(i) in
          pcs := item.Knapsack.pc :: !pcs;
          value := !value + item.Knapsack.value;
          cost := !cost + item.Knapsack.cost;
          v := max 0 (!v - item.Knapsack.value)
        end
      done;
      { Knapsack.pcs = !pcs; value = !value; cost = !cost }
    end

  let points s =
    let pts = ref [] in
    for v = s.total_value downto 1 do
      if s.dp.(v) < infinite_cost && (v = s.total_value || s.dp.(v) < s.dp.(v + 1)) then
        pts := (v, s.dp.(v)) :: !pts
    done;
    (0, 0) :: !pts
end

(* Large values (so early rows are far shorter than Σvalue), small ones,
   zero-value items, few distinct costs (ties), free items (a cost-0
   item dominates (0, 0), so the Pareto list no longer ends at value 0),
   repeated pcs, and lists of length 0 and 1; and dense-frontier lists,
   shaped like the skip model's valuations: many items of small value
   and unit cost, where nearly every value is a frontier point. *)
let gen_oracle_items =
  QCheck2.Gen.(
    let value = frequency [ (6, int_range 1 5000); (3, int_range 1 12); (1, return 0) ] in
    let cost =
      frequency [ (6, int_range 1 6); (1, int_range 1 1_000_000); (1, return 0) ]
    in
    let item value cost =
      map4
        (fun k i value cost -> { Knapsack.pc = pc k i; value; cost })
        (int_range 0 2) (int_range 0 40) value cost
    in
    let dense = item (int_range 1 3) (frequency [ (8, return 1); (1, return 2) ]) in
    let item = item value cost in
    frequency
      [
        (1, return []);
        (2, map (fun it -> [ it ]) item);
        (8, list_size (int_range 2 10) item);
        (3, list_size (int_range 10 60) dense);
      ])

let print_items items =
  String.concat "; "
    (List.map
       (fun (it : Knapsack.item) ->
         Printf.sprintf "k%d:%d v=%d c=%d" it.Knapsack.pc.Site.kernel it.Knapsack.pc.Site.instr
           it.Knapsack.value it.Knapsack.cost)
       items)

let prop_knapsack_matches_rectangular_dp =
  QCheck2.Test.make ~count:200 ~name:"solve matches the full-width DP at every target"
    ~print:print_items gen_oracle_items
    (fun items ->
      let sol = Knapsack.solve items and oracle = Rect.solve items in
      let top = Knapsack.max_value sol in
      let rec selects_agree target =
        target > top + 1
        || Knapsack.select sol ~target = Rect.select oracle ~target
           && selects_agree (target + 1)
      in
      top = oracle.Rect.total_value
      && Knapsack.points sol = Rect.points oracle
      && selects_agree (-1))

(* Pareto costs strictly increase from 0 along ascending values, so a
   Pareto list holds at most min(Σvalue, Σcost) + 1 pairs: the size
   [solve] gives its list buffers, checked here on the last list. *)
let prop_knapsack_frontier_bound =
  QCheck2.Test.make ~count:200 ~name:"frontier fits min(Σvalue, Σcost) + 1"
    ~print:print_items gen_oracle_items
    (fun items ->
      let valued =
        List.filter (fun (it : Knapsack.item) -> it.Knapsack.value > 0) items
      in
      let sum f = List.fold_left (fun acc it -> acc + f it) 0 valued in
      let bound =
        min (sum (fun it -> it.Knapsack.value)) (sum (fun it -> it.Knapsack.cost)) + 1
      in
      List.length (Knapsack.points (Knapsack.solve items)) - 1 <= bound)

let test_knapsack_negative_cost () =
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Knapsack.solve: negative cost -1")
    (fun () -> ignore (Knapsack.solve [ item 0 0 3 1; item 0 1 2 (-1) ]))

let test_knapsack_take_bytes () =
  let module Telemetry = Ff_support.Telemetry in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  ignore (Knapsack.solve [ item 0 0 3 1; item 0 1 5 1; item 0 2 9 1 ]);
  let counter name = List.assoc name (Telemetry.snapshot ()).Telemetry.snap_counters in
  (* each row improves one run: [3..1], [8..4] and [17..6], so the
     traceback keeps 6 bounds of 8 bytes *)
  Alcotest.(check int) "take bytes" 48 (counter "knapsack.take_bytes");
  (* item i merges P_{i-1}: {(0,0)}, then {(3,1), (0,0)}, then
     {(8,2), (5,1), (0,0)} ((3,1) is dominated by (5,1)): 1 + 2 + 3 *)
  Alcotest.(check int) "pareto points: Σ |P_{i-1}|" 6 (counter "knapsack.pareto_points");
  Alcotest.(check int) "items" 3 (counter "knapsack.items")

(* Row shapes the run encoding must get right, each checked against the
   [Rect] oracle at every target from -1 to max + 1 and on [points]. *)
let test_knapsack_run_edges () =
  let agree name items =
    let sol = Knapsack.solve items and oracle = Rect.solve items in
    let top = Knapsack.max_value sol in
    Alcotest.(check int) (name ^ ": max value") oracle.Rect.total_value top;
    Alcotest.(check (list (pair int int)))
      (name ^ ": points") (Rect.points oracle) (Knapsack.points sol);
    for target = -1 to top + 1 do
      let got = Knapsack.select sol ~target and want = Rect.select oracle ~target in
      Alcotest.(check bool)
        (Printf.sprintf "%s: select at %d" name target)
        true (got = want)
    done
  in
  (* row 0 improves [3..1]: its run closes at v = 1 *)
  agree "run ends at v = 1" [ item 0 0 3 5 ];
  (* row 1 (value 3) improves [4..1]: v = 4 in the sweep above its
     value, v = 3..1 in the one below *)
  agree "run crosses the v = w split" [ item 0 0 1 5; item 0 1 3 1 ];
  (* every later row improves at least dp(S_i), which was infinite; only
     a cost of [max_int / 2] (the DP's infinity) leaves a row empty *)
  agree "row without improvement" [ item 0 0 2 1; item 0 1 3 (max_int / 2) ];
  agree "single-cell row" [ item 0 0 1 7 ];
  agree "total value 0" [ item 0 0 0 3; item 0 1 0 1 ];
  agree "no items" []

(* The default-config LUD/None analysis under a fault model, analyzed
   once for every test that reads its knapsack. *)
let lud_none =
  let analyses = Hashtbl.create 2 in
  fun model ->
    match Hashtbl.find_opt analyses model with
    | Some a -> a
    | None ->
        let source =
          (Option.get (Ff_benchmarks.Registry.find "LUD")).Ff_benchmarks.Defs.source
            Ff_benchmarks.Defs.V_none
        in
        let cfg = Pipeline.default_config in
        let config =
          {
            cfg with
            Pipeline.campaign =
              {
                cfg.Pipeline.campaign with
                Campaign.model = Ff_inject.Fault_model.of_string_exn model;
              };
          }
        in
        let a = Pipeline.analyze config (Frontend.compile_exn source) in
        Hashtbl.add analyses model a;
        a

(* The solve at real scale, against the [Rect] oracle: LUD/None under
   bitflips (a sparse frontier over a large Σvalue) and under skip
   (nearly every value a frontier point). [points] must be equal, and
   [select] at every frontier value and at the integer target of every
   fraction 0.00, 0.01, …, 1.00. *)
let test_knapsack_real_scale () =
  List.iter
    (fun model ->
      let a = lud_none model in
      let sol = a.Pipeline.solution in
      let oracle = Rect.solve (Knapsack.items_of_valuation a.Pipeline.valuation) in
      let points = Knapsack.points sol in
      Alcotest.(check (list (pair int int)))
        (model ^ ": points") (Rect.points oracle) points;
      let total = Knapsack.max_value sol in
      let fractions =
        List.init 101 (fun k -> Knapsack.integer_target ~total (float_of_int k /. 100.0))
      in
      List.iter
        (fun target ->
          if Knapsack.select sol ~target <> Rect.select oracle ~target then
            Alcotest.failf "%s: select at %d differs from the full-width DP" model target)
        (List.map fst points @ fractions))
    [ "bitflip"; "skip" ]

(* What a solved knapsack retains, on the default-config LUD/None
   analysis: run bounds and a frontier, never the solve's list buffers
   or a bitmap per row. The bitflip bound is a quarter of the bitmap layout's 4.15
   MiB; under skip, where almost every v is a frontier point, the bound
   is the bitmap layout's own 24 622 words. *)
let test_knapsack_retained_size () =
  let words model = Obj.reachable_words (Obj.repr (lud_none model).Pipeline.solution) in
  let bitflip = words "bitflip" in
  Alcotest.(check bool)
    (Printf.sprintf "bitflip: %d words <= 1 MiB" bitflip)
    true
    (bitflip * (Sys.word_size / 8) <= 1 lsl 20);
  let skip = words "skip" in
  Alcotest.(check bool) (Printf.sprintf "skip: %d words <= 24622" skip) true (skip <= 24_622)

let test_knapsack_integer_target () =
  let raises fraction =
    match Knapsack.integer_target ~total:40 fraction with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun f -> Alcotest.(check bool) (Printf.sprintf "%g raises" f) true (raises f))
    [ infinity; neg_infinity; nan ];
  List.iter
    (fun (f, want) ->
      Alcotest.(check int) (Printf.sprintf "%g of 40" f) want
        (Knapsack.integer_target ~total:40 f))
    [ (0.0, 0); (0.9, 36); (0.901, 37); (1.0, 40); (1.7, 40); (1e300, 40); (-0.5, 0);
      (-1e300, 0) ];
  Alcotest.(check int) "empty total" 0 (Knapsack.integer_target ~total:0 1e300)

(* --- pipeline on a small program ------------------------------------------- *)

let program_src =
  {|buffer a : float[2] = { 0.5, 0.25 };
buffer mid : float[2] = zeros;
output buffer res : float[2] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..2 { mid[i] = a[i] * 2.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..2 { res[i] = mid[i] + 0.5; }
}
schedule {
  call first(a, mid);
  call second(mid, res);
}|}

let quick_config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 1; 33; 63 ] };
    sensitivity_samples = 60;
  }

let compile src = Result.get_ok (Frontend.compile src)

let analysis = lazy (Pipeline.analyze quick_config (compile program_src))

let base = lazy (Baseline.analyze quick_config.Pipeline.campaign ~epsilon:0.0
                   (Lazy.force analysis).Pipeline.golden)

let test_pipeline_shapes () =
  let a = Lazy.force analysis in
  Alcotest.(check int) "one record per section" 2 (Array.length a.Pipeline.sections);
  Alcotest.(check int) "no store: all analyzed" 2 a.Pipeline.sections_analyzed;
  Alcotest.(check int) "no store: none reused" 0 a.Pipeline.sections_reused;
  Alcotest.(check bool) "work positive" true (a.Pipeline.work > 0);
  Alcotest.(check int) "work = total when fresh" a.Pipeline.total_section_work
    a.Pipeline.work

let test_valuation_totals () =
  let a = Lazy.force analysis in
  let v = a.Pipeline.valuation in
  Alcotest.(check int) "cost = trace length" a.Pipeline.golden.Golden.total_dyn
    v.Valuation.total_cost;
  Alcotest.(check bool) "some value found" true (v.Valuation.total_value > 0);
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 v.Valuation.values in
  Alcotest.(check int) "per-pc values sum to total" v.Valuation.total_value sum

let test_valuation_fractions () =
  let a = Lazy.force analysis in
  let v = a.Pipeline.valuation in
  let all_pcs = List.map fst v.Valuation.values in
  Alcotest.(check (float 1e-9)) "full selection = 1.0" 1.0
    (Valuation.value_fraction v ~selected:all_pcs);
  Alcotest.(check (float 1e-9)) "empty selection = 0" 0.0
    (Valuation.value_fraction v ~selected:[]);
  let frac = Valuation.cost_fraction v ~selected:all_pcs in
  Alcotest.(check bool) "cost fraction in (0,1]" true (frac > 0.0 && frac <= 1.0)

let test_select_meets_target () =
  let a = Lazy.force analysis in
  let sel = Pipeline.select a ~target:0.9 in
  let v = a.Pipeline.valuation in
  let achieved = Valuation.value_fraction v ~selected:sel.Knapsack.pcs in
  Alcotest.(check bool) "selection reaches its own target" true (achieved >= 0.9 -. 1e-9)

let test_revaluate_epsilon () =
  let a = Lazy.force analysis in
  let relaxed = Pipeline.revaluate a ~epsilon:1e6 in
  Alcotest.(check bool) "huge epsilon shrinks value mass" true
    (relaxed.Pipeline.valuation.Valuation.total_value
    <= a.Pipeline.valuation.Valuation.total_value);
  let strict = Pipeline.revaluate a ~epsilon:0.0 in
  Alcotest.(check int) "revaluate at same epsilon is stable"
    a.Pipeline.valuation.Valuation.total_value
    strict.Pipeline.valuation.Valuation.total_value

let test_baseline_valuation () =
  let b = Lazy.force base in
  Alcotest.(check bool) "baseline found value" true
    (b.Baseline.valuation.Valuation.total_value > 0);
  let sel = Baseline.select b ~target:0.9 in
  let achieved =
    Valuation.value_fraction b.Baseline.valuation ~selected:sel.Knapsack.pcs
  in
  Alcotest.(check bool) "baseline meets own target" true (achieved >= 0.9 -. 1e-9)

(* Out-of-range fractions clamp to [0, 1]; non-finite ones are refused
   instead of wrapping to min_int and protecting nothing. *)
let test_select_out_of_range_targets () =
  let check_clamps name select =
    let same a b = select ~target:a = select ~target:b in
    Alcotest.(check bool) (name ^ ": 1e300 selects like 1.0") true (same 1e300 1.0);
    Alcotest.(check bool) (name ^ ": -1e300 selects like 0.0") true (same (-1e300) 0.0);
    List.iter
      (fun target ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %g raises" name target)
          true
          (match select ~target with
           | _ -> false
           | exception Invalid_argument _ -> true))
      [ infinity; nan ]
  in
  check_clamps "pipeline" (Pipeline.select (Lazy.force analysis));
  check_clamps "baseline" (Baseline.select (Lazy.force base))

(* --- store / incremental ---------------------------------------------------- *)

let test_store_hits () =
  let store = Store.create () in
  let a1 = Pipeline.analyze ~store quick_config (compile program_src) in
  Alcotest.(check int) "first run analyzes everything" 2 a1.Pipeline.sections_analyzed;
  let a2 = Pipeline.analyze ~store quick_config (compile program_src) in
  Alcotest.(check int) "second run reuses everything" 2 a2.Pipeline.sections_reused;
  Alcotest.(check int) "second run costs nothing" 0 a2.Pipeline.work;
  Alcotest.(check int) "identical valuation"
    a1.Pipeline.valuation.Valuation.total_value
    a2.Pipeline.valuation.Valuation.total_value

let test_store_invalidates_on_edit () =
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile program_src) in
  (* Edit the second kernel only (same semantics, different code). *)
  let edited =
    {|buffer a : float[2] = { 0.5, 0.25 };
buffer mid : float[2] = zeros;
output buffer res : float[2] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..2 { mid[i] = a[i] * 2.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..2 {
    var t: float = mid[i];
    res[i] = t + 0.5;
  }
}
schedule {
  call first(a, mid);
  call second(mid, res);
}|}
  in
  let a2 = Pipeline.analyze ~store quick_config (compile edited) in
  Alcotest.(check int) "first reused" 1 a2.Pipeline.sections_reused;
  Alcotest.(check int) "second re-analyzed" 1 a2.Pipeline.sections_analyzed

let test_store_invalidates_downstream_on_semantic_change () =
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile program_src) in
  (* Change the FIRST kernel's semantics: its output changes, so the
     downstream section's input hash changes and it re-analyzes too. *)
  let changed =
    {|buffer a : float[2] = { 0.5, 0.25 };
buffer mid : float[2] = zeros;
output buffer res : float[2] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..2 { mid[i] = a[i] * 3.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..2 { res[i] = mid[i] + 0.5; }
}
schedule {
  call first(a, mid);
  call second(mid, res);
}|}
  in
  let a2 = Pipeline.analyze ~store quick_config (compile changed) in
  Alcotest.(check int) "nothing reused" 0 a2.Pipeline.sections_reused;
  Alcotest.(check int) "both re-analyzed" 2 a2.Pipeline.sections_analyzed

let test_store_config_isolation () =
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile program_src) in
  let other_config =
    { quick_config with Pipeline.campaign = { quick_config.Pipeline.campaign with Campaign.bits = Site.Bit_list [ 2 ] } }
  in
  let a2 = Pipeline.analyze ~store other_config (compile program_src) in
  Alcotest.(check int) "different config: no reuse" 0 a2.Pipeline.sections_reused

let test_store_counters () =
  let store = Store.create () in
  Alcotest.(check int) "empty" 0 (Store.size store);
  let _ = Pipeline.analyze ~store quick_config (compile program_src) in
  Alcotest.(check int) "two records" 2 (Store.size store);
  Alcotest.(check int) "two misses" 2 (Store.misses store);
  let _ = Pipeline.analyze ~store quick_config (compile program_src) in
  Alcotest.(check int) "two hits" 2 (Store.hits store)

(* The store key space, pinned: the default configuration's hash and the
   section keys of examples/pipeline.ff. A change to any input of a key
   (kernel code, golden inputs, campaign or sensitivity configuration, or
   how they are hashed) turns every stored record into a miss, so it
   must show up here. The prover policy is set to on rather than read
   from FF_PROVE. *)
let test_store_key_space () =
  let hex = Printf.sprintf "0x%016Lx" in
  let config =
    {
      Pipeline.default_config with
      Pipeline.campaign =
        {
          Pipeline.default_config.Pipeline.campaign with
          Campaign.prove = Ff_inject.Prover.on;
        };
    }
  in
  Alcotest.(check string) "default config hash" "0x8b083f6b17ea5dcf"
    (hex (Pipeline.config_hash config));
  (* From test/ under [dune runtest], from the root under [dune exec]. *)
  let path =
    List.find Sys.file_exists [ "../examples/pipeline.ff"; "examples/pipeline.ff" ]
  in
  let program = compile (In_channel.with_open_bin path In_channel.input_all) in
  let keys = (Pipeline.prepare config program).Pipeline.p_keys in
  Alcotest.(check (list (triple string string string)))
    "section keys (code, input, config)"
    [
      ("0xe0a770dc6d6da937", "0x1e08e2bce9b4d3e5", "0x60d137a6ecb37b90");
      ("0x33fbf92ad8572bac", "0x88f8fffae5c67762", "0x60d137a6ecb37b90");
      ("0xf1810d47ab5bf1fb", "0x1698577ff361b2e2", "0x60d137a6ecb37b90");
    ]
    (Array.to_list
       (Array.map
          (fun (k : Store.key) ->
            (hex k.Store.code_hash, hex k.input_hash, hex k.config_hash))
          keys))

(* --- crash safety: hardened persistence ----------------------------------- *)

let slurp path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let spit path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* One analyzed store and the pristine bytes of its single-shard image
   (manifest, shard log), shared by the corruption fuzz below (the
   analysis is the expensive part). One shard puts every record behind
   one manifest entry; test_store3.ml fuzzes the multi-shard layout. *)
let pristine = lazy (
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile program_src) in
  let path = Filename.temp_file "ffstore" ".bin" in
  Sys.remove path;
  let _ = Persist.save store ~path ~shards:1 in
  let files = (slurp path, slurp (Persist.shard_path path 0)) in
  Kill_resume.remove_store path;
  (store, files))

let load_files (manifest, log) =
  let path = Filename.temp_file "fffuzz" ".bin" in
  spit path manifest;
  spit (Persist.shard_path path 0) log;
  let result = Persist.load ~path in
  Kill_resume.remove_store path;
  result

(* Every record a salvaging load returns must be one of the original
   records, byte-for-byte — salvage may drop, never invent or distort. *)
let survivors_intact original loaded =
  List.for_all
    (fun r ->
      match Store.find original r.Store.rec_key with
      | Some o -> Persist.roundtrip_equal o r
      | None -> false)
    (Store.records loaded)

let prop_corrupt_store_salvage =
  QCheck2.Test.make ~count:250
    ~name:"corrupt store: load never raises and survivors are intact"
    QCheck2.Gen.(
      quad bool (int_range 0 3) (float_bound_exclusive 1.0) (int_range 0 255))
    (fun (hit_manifest, kind, frac, byte) ->
      let store, (manifest, log) = Lazy.force pristine in
      let data0 = if hit_manifest then manifest else log in
      let n = String.length data0 in
      let off = min (n - 1) (int_of_float (frac *. float_of_int n)) in
      let data =
        match kind with
        | 0 ->
          (* flip bits of one byte *)
          let b = Bytes.of_string data0 in
          Bytes.set b off
            (Char.chr (Char.code (Bytes.get b off) lxor (1 + (byte mod 255))));
          Bytes.to_string b
        | 1 -> String.sub data0 0 off (* truncate *)
        | 2 ->
          (* zero out a 24-byte run *)
          let b = Bytes.of_string data0 in
          for i = off to min (n - 1) (off + 23) do
            Bytes.set b i '\000'
          done;
          Bytes.to_string b
        | _ ->
          (* splice garbage into the middle *)
          String.sub data0 0 off
          ^ String.make 5 (Char.chr byte)
          ^ String.sub data0 off (n - off)
      in
      let files = if hit_manifest then (data, log) else (manifest, data) in
      match load_files files with
      | Error _ -> true (* magic destroyed: refusing the store outright is fine *)
      | Ok (loaded, skipped) ->
        Store.size loaded <= Store.size store
        (* losing a record silently is the one unforgivable outcome *)
        && (Store.size loaded = Store.size store || skipped > 0)
        && survivors_intact store loaded)

let test_persist_concurrent_writers_merge () =
  (* Two processes sharing a store path must union their records, not
     last-writer-wins. Different sensitivity settings give the two
     "processes" disjoint store keys for the same program. *)
  let path = Filename.temp_file "ffmerge" ".bin" in
  Sys.remove path;
  let store1 = Store.create () in
  let _ = Pipeline.analyze ~store:store1 quick_config (compile program_src) in
  let store2 = Store.create () in
  let config2 = { quick_config with Pipeline.sensitivity_samples = 61 } in
  let _ = Pipeline.analyze ~store:store2 config2 (compile program_src) in
  let union = Store.size store1 + Store.size store2 in
  let check_union msg =
    match Persist.load ~path with
    | Error e -> Alcotest.failf "%s: load failed: %s" msg e
    | Ok (loaded, skipped) ->
      Alcotest.(check int) (msg ^ ": store pristine") 0 skipped;
      Alcotest.(check int) (msg ^ ": union size") union (Store.size loaded);
      List.iter
        (fun r ->
          match Store.find loaded r.Store.rec_key with
          | Some found ->
            Alcotest.(check bool) (msg ^ ": record intact") true
              (Persist.roundtrip_equal r found)
          | None -> Alcotest.failf "%s: record lost in merge" msg)
        (Store.records store1 @ Store.records store2)
  in
  let w1 = Persist.save store1 ~path in
  Alcotest.(check int) "first writer appends everything"
    (Store.size store1) w1.Persist.sv_appended;
  let w2 = Persist.save store2 ~path in
  Alcotest.(check int) "second writer appends only its own"
    (Store.size store2) w2.Persist.sv_appended;
  check_union "after both writers";
  (* Re-saving a clean writer appends nothing — the whole point of the
     dirty-tracking delta log — and disturbs no on-disk record. *)
  let w3 = Persist.save store1 ~path in
  Alcotest.(check int) "clean re-save appends nothing" 0 w3.Persist.sv_appended;
  check_union "after idempotent re-save";
  Kill_resume.remove_store path

(* --- crash safety: checkpointed campaigns ---------------------------------- *)

let selection_equal a b =
  let sa = Pipeline.select a ~target:0.9 and sb = Pipeline.select b ~target:0.9 in
  sa.Knapsack.pcs = sb.Knapsack.pcs
  && sa.Knapsack.value = sb.Knapsack.value
  && sa.Knapsack.cost = sb.Knapsack.cost

let check_bit_identical ~msg (a : Pipeline.analysis) (b : Pipeline.analysis) =
  Alcotest.(check int) (msg ^ ": section count")
    (Array.length a.Pipeline.sections) (Array.length b.Pipeline.sections);
  Array.iteri
    (fun i ra ->
      Alcotest.(check bool) (Printf.sprintf "%s: section %d record" msg i) true
        (Persist.roundtrip_equal ra b.Pipeline.sections.(i)))
    a.Pipeline.sections;
  Alcotest.(check int) (msg ^ ": work") a.Pipeline.work b.Pipeline.work;
  Alcotest.(check int) (msg ^ ": total work") a.Pipeline.total_section_work
    b.Pipeline.total_section_work;
  Alcotest.(check bool) (msg ^ ": valuation") true
    (a.Pipeline.valuation.Valuation.values = b.Pipeline.valuation.Valuation.values);
  Alcotest.(check bool) (msg ^ ": knapsack selection") true (selection_equal a b)

let test_checkpoint_kill_and_resume () =
  let program = compile program_src in
  let golden = Golden.run program in
  (* Prover off so the append arithmetic below holds: proved classes are
     never journaled, so with the prover on the final kill point would
     never be reached. Prove-on resume parity lives in test_prover.ml. *)
  let quick_config =
    {
      quick_config with
      Pipeline.campaign =
        { quick_config.Pipeline.campaign with Campaign.prove = Ff_inject.Prover.off };
    }
  in
  (* Total checkpoint appends an uninterrupted ~every:2 run performs, so
     the kill points below cover the first, a middle, and the final
     append. *)
  let appends_per_section i =
    let classes =
      List.length
        (Ff_inject.Eqclass.for_section golden.Golden.sections.(i)
           quick_config.Pipeline.campaign.Campaign.bits)
    in
    (classes + 1) / 2
  in
  let total_appends =
    Array.fold_left ( + ) 0
      (Array.init (Array.length golden.Golden.sections) appends_per_section)
  in
  Alcotest.(check bool) "program large enough to checkpoint" true (total_appends >= 3);
  let kill_points = List.sort_uniq compare [ 1; total_appends / 2; total_appends ] in
  List.iter
    (fun domains ->
      Ff_support.Pool.with_pool ~domains (fun pool ->
          let reference = Pipeline.analyze ~pool quick_config program in
          List.iter
            (fun after ->
              let msg = Printf.sprintf "domains=%d kill=%d" domains after in
              let path = Filename.temp_file "ffprogress" ".bin" in
              Kill_resume.kill ~pool ~after ~path quick_config program;
              (* The resumed run must match the uninterrupted one bit for
                 bit — outcomes AND work counters. *)
              let resumed, loaded, skipped =
                Kill_resume.resume ~pool ~path quick_config program
              in
              Alcotest.(check bool) (msg ^ ": crashed progress survives") true (loaded > 0);
              Alcotest.(check int) (msg ^ ": progress log pristine") 0 skipped;
              check_bit_identical ~msg reference resumed)
            kill_points))
    [ 1; 4 ]

let test_checkpoint_survives_torn_tail () =
  (* A real crash can tear the progress log mid-write; resume must
     salvage the intact prefix and re-run the rest, not refuse or
     mis-restore. *)
  let program = compile program_src in
  let path = Filename.temp_file "ffprogress" ".bin" in
  let reference = Pipeline.analyze quick_config program in
  Kill_resume.kill ~after:2 ~path quick_config program;
  (* Tear the last 7 bytes off, as a power loss mid-append would. *)
  let lpath = Persist.progress_path path in
  let data = slurp lpath in
  spit lpath (String.sub data 0 (String.length data - 7));
  let resumed, _, skipped = Kill_resume.resume ~path quick_config program in
  Alcotest.(check bool) "torn region reported" true (skipped > 0);
  check_bit_identical ~msg:"torn tail" reference resumed;
  (* A crash between the log's creation and its first write leaves it
     empty: that resumes as an empty log, not an error. *)
  spit lpath "";
  let _, loaded, skipped = Kill_resume.open_progress ~path ~resume:true in
  Alcotest.(check (pair int int)) "empty log resumes empty" (0, 0) (loaded, skipped);
  Kill_resume.remove_store path

(* A progress log keeps its own magic: a log of the earlier format (the
   shard-log magic, fixed-width outcomes) or a foreign file is refused on
   resume with one line, never misread; a fresh run discards either. *)
let test_progress_log_format_refused () =
  let path = Filename.temp_file "ffprogress" ".bin" in
  let lpath = Persist.progress_path path in
  let refused data expected =
    spit lpath data;
    (match Persist.open_progress ~path ~every:2 ~resume:true with
    | Error e -> Alcotest.(check string) "refusal" expected e
    | Ok _ -> Alcotest.failf "%S resumed" (String.sub data 0 8));
    let _, loaded, _ = Kill_resume.open_progress ~path ~resume:false in
    Alcotest.(check int) "a fresh run discards it" 0 loaded;
    Alcotest.(check bool) "discarded" false (Sys.file_exists lpath)
  in
  refused
    ("FFSHARD2" ^ Wire.frame "batch")
    "unsupported progress-log format FFSHARD2 (only FFPROGL1 is read)";
  refused "FFSTORE4 not a log" "not a FastFlip progress log";
  let progress, _, _ = Kill_resume.open_progress ~path ~resume:false in
  let key = { Store.code_hash = 1L; input_hash = 2L; config_hash = 3L } in
  (Persist.progress_journal progress ~key).Campaign.j_append
    [ (0, Ff_inject.Outcome.S_detected Ff_inject.Outcome.Crash, 5) ];
  Alcotest.(check string) "a new log starts with its magic" "FFPROGL1"
    (String.sub (slurp lpath) 0 8);
  let progress, loaded, skipped = Kill_resume.open_progress ~path ~resume:true in
  Alcotest.(check (pair int int)) "and resumes" (1, 0) (loaded, skipped);
  Persist.remove_progress progress;
  Kill_resume.remove_store path

(* The progress log is a sibling of the store, not part of it: load, stat
   and compact answer exactly as they do without it, compaction leaves
   it in place, and a progress log alone is no store. *)
let test_progress_log_invisible_to_store () =
  let store, _ = Lazy.force pristine in
  let path = Filename.temp_file "ffsibling" ".bin" in
  Sys.remove path;
  let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e in
  let observe () =
    let _ = Persist.save store ~path ~shards:4 in
    let loaded, skipped = ok "load" (Persist.load ~path) in
    let info = ok "stat" (Persist.stat ~path) in
    let compacted = ok "compact" (Persist.compact ~path ()) in
    let compacted_info = ok "stat" (Persist.stat ~path) in
    Kill_resume.remove_store ~keep_progress:true path;
    (List.map (fun r -> r.Store.rec_key) (Store.records loaded), skipped, info, compacted,
     compacted_info)
  in
  let without_log = observe () in
  let progress, _, _ = Kill_resume.open_progress ~path ~resume:false in
  let key = (List.hd (Store.records store)).Store.rec_key in
  (Persist.progress_journal progress ~key).Campaign.j_append
    [ (0, Ff_inject.Outcome.S_detected Ff_inject.Outcome.Crash, 7) ];
  let log = slurp (Persist.progress_path path) in
  Alcotest.(check bool) "progress log alone is no store" false (Persist.present ~path);
  Alcotest.(check bool) "load/stat/compact ignore the progress log" true
    (observe () = without_log);
  Alcotest.(check string) "compact leaves the progress log in place" log
    (slurp (Persist.progress_path path));
  Kill_resume.remove_store path

let test_crash_safety_counters_in_metrics () =
  (* The hardened layers' counters are interned in the process registry,
     so the deterministic --metrics JSON export carries them even at
     zero. *)
  let module Telemetry = Ff_support.Telemetry in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  let module Json = Ff_support.Json in
  let counters =
    match Json.parse (Telemetry.to_json ~timings:false (Telemetry.snapshot ())) with
    | Ok doc -> Json.member "counters" doc
    | Error e -> Alcotest.failf "the export does not parse: %s" e
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) name true
        (match Option.bind counters (Json.member name) with
        | Some (Json.Int _) -> true
        | _ -> false))
    [
      "pool.retries"; "pool.quarantined"; "campaign.retries";
      "campaign.quarantined"; "campaign.journal.batches";
      "campaign.journal.restored"; "checkpoint.classes_appended";
      "checkpoint.classes_loaded"; "checkpoint.skipped_regions";
      "persist.records_loaded"; "persist.records_skipped";
      "persist.saves.merged_records"; "persist.appends";
      "persist.records_appended"; "persist.compactions";
    ]

(* --- adjust / compare --------------------------------------------------------- *)

let test_adjust_identity () =
  let st = Adjust.identity ~target:0.9 in
  Alcotest.(check (float 0.0)) "no adjustment" 0.9 st.Adjust.adjusted_target;
  Alcotest.(check bool) "never refreshes" false
    (Adjust.needs_refresh (Adjust.after_modification st))

let test_adjust_refresh_counter () =
  let a = Lazy.force analysis in
  let b = Lazy.force base in
  let st =
    Adjust.fresh ~p_adj:2 ~ff:a ~ground_truth:b.Baseline.valuation ~target:0.9 ()
  in
  Alcotest.(check bool) "fresh does not refresh" false (Adjust.needs_refresh st);
  let st = Adjust.after_modification (Adjust.after_modification st) in
  Alcotest.(check bool) "after p_adj modifications" true (Adjust.needs_refresh st)

let test_adjusted_target_achieves () =
  let a = Lazy.force analysis in
  let b = Lazy.force base in
  let target = 0.9 in
  let adjusted =
    Adjust.compute_adjusted_target ~ff:a ~ground_truth:b.Baseline.valuation ~target
  in
  let sel = Pipeline.select a ~target:adjusted in
  let achieved =
    Valuation.value_fraction b.Baseline.valuation ~selected:sel.Knapsack.pcs
  in
  if adjusted < 1.0 then
    Alcotest.(check bool) "adjusted selection achieves the target" true
      (achieved >= target -. 1e-9)

let test_compare_row_fields () =
  let a = Lazy.force analysis in
  let b = Lazy.force base in
  let row = Compare.row ~ff:a ~base:b ~inaccuracy:0.04 ~target:0.9 ~used_target:0.9 in
  Alcotest.(check (float 1e-12)) "diff = ff - base" (row.Compare.ff_cost -. row.Compare.base_cost)
    row.Compare.cost_diff;
  Alcotest.(check bool) "achieved in [0,1]" true
    (row.Compare.achieved >= 0.0 && row.Compare.achieved <= 1.0);
  Alcotest.(check bool) "error range non-negative" true (row.Compare.error_range >= 0.0)

let test_default_inaccuracies () =
  Alcotest.(check (float 0.0)) "fft" 0.03 (Compare.default_inaccuracy "FFT");
  Alcotest.(check (float 0.0)) "bscholes" 0.10 (Compare.default_inaccuracy "bscholes");
  Alcotest.(check (float 0.0)) "unknown" 0.04 (Compare.default_inaccuracy "whatever")

let () =
  Alcotest.run "core"
    [
      ( "knapsack",
        [
          Alcotest.test_case "empty target" `Quick test_knapsack_empty_target;
          Alcotest.test_case "prefers cheap" `Quick test_knapsack_prefers_cheap;
          Alcotest.test_case "combines items" `Quick test_knapsack_combines;
          Alcotest.test_case "target above max" `Quick test_knapsack_target_above_max;
          Alcotest.test_case "zero-value ignored" `Quick test_knapsack_zero_value_items_ignored;
          QCheck_alcotest.to_alcotest prop_knapsack_optimal;
          QCheck_alcotest.to_alcotest prop_knapsack_selection_consistent;
          QCheck_alcotest.to_alcotest prop_knapsack_cost_monotone;
          QCheck_alcotest.to_alcotest prop_knapsack_matches_rectangular_dp;
          QCheck_alcotest.to_alcotest prop_knapsack_frontier_bound;
          Alcotest.test_case "negative cost" `Quick test_knapsack_negative_cost;
          Alcotest.test_case "take bytes count run bounds" `Quick test_knapsack_take_bytes;
          Alcotest.test_case "run edge cases match the full-width DP" `Quick
            test_knapsack_run_edges;
          Alcotest.test_case "integer target" `Quick test_knapsack_integer_target;
          Alcotest.test_case "LUD/None matches the full-width DP" `Quick
            test_knapsack_real_scale;
          Alcotest.test_case "retained size" `Quick test_knapsack_retained_size;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "shapes" `Quick test_pipeline_shapes;
          Alcotest.test_case "valuation totals" `Quick test_valuation_totals;
          Alcotest.test_case "valuation fractions" `Quick test_valuation_fractions;
          Alcotest.test_case "select meets target" `Quick test_select_meets_target;
          Alcotest.test_case "revaluate epsilon" `Quick test_revaluate_epsilon;
          Alcotest.test_case "baseline" `Quick test_baseline_valuation;
          Alcotest.test_case "out-of-range targets" `Quick test_select_out_of_range_targets;
        ] );
      ( "store",
        [
          Alcotest.test_case "hits on identical version" `Quick test_store_hits;
          Alcotest.test_case "invalidates edited kernel" `Quick test_store_invalidates_on_edit;
          Alcotest.test_case "invalidates downstream" `Quick
            test_store_invalidates_downstream_on_semantic_change;
          Alcotest.test_case "config isolation" `Quick test_store_config_isolation;
          Alcotest.test_case "counters" `Quick test_store_counters;
          Alcotest.test_case "key space" `Quick test_store_key_space;
        ] );
      ( "crash safety",
        [
          QCheck_alcotest.to_alcotest prop_corrupt_store_salvage;
          Alcotest.test_case "concurrent writers merge" `Quick
            test_persist_concurrent_writers_merge;
          Alcotest.test_case "kill and resume is bit-identical" `Quick
            test_checkpoint_kill_and_resume;
          Alcotest.test_case "torn journal tail" `Quick
            test_checkpoint_survives_torn_tail;
          Alcotest.test_case "progress log of another format refused" `Quick
            test_progress_log_format_refused;
          Alcotest.test_case "progress log invisible to the store" `Quick
            test_progress_log_invisible_to_store;
          Alcotest.test_case "counters exported" `Quick
            test_crash_safety_counters_in_metrics;
        ] );
      ( "adjust/compare",
        [
          Alcotest.test_case "identity" `Quick test_adjust_identity;
          Alcotest.test_case "refresh counter" `Quick test_adjust_refresh_counter;
          Alcotest.test_case "adjusted target achieves" `Quick test_adjusted_target_achieves;
          Alcotest.test_case "compare row" `Quick test_compare_row_fields;
          Alcotest.test_case "default inaccuracies" `Quick test_default_inaccuracies;
        ] );
    ]
