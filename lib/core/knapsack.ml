module Site = Ff_inject.Site
module Telemetry = Ff_support.Telemetry

let m_solves = Telemetry.counter "knapsack.solves"
let m_items = Telemetry.counter "knapsack.items"
let m_pareto_points = Telemetry.counter "knapsack.pareto_points"
let m_take_bytes = Telemetry.counter "knapsack.take_bytes"
let h_pareto_points = Telemetry.histogram "knapsack.pareto_points_per_solve"

type item = {
  pc : Site.pc;
  value : int;
  cost : int;
}

type solution = {
  items : item array;
  take : int array array;
      (** take.(i): the maximal runs of v that item i improved, as
          descending inclusive bounds [hi; lo; hi; lo; …] *)
  frontier : Bytes.t;         (** bit v: v is a frontier value *)
  frontier_costs : int array; (** dp(v) of each frontier v, ascending in v *)
  total_value : int;
}

let infinite_cost = max_int / 2

(* The frontier bitset; v <= total_value, so the byte is in range. *)
let bit_get bytes v =
  Char.code (Bytes.unsafe_get bytes (v lsr 3)) land (1 lsl (v land 7)) <> 0

let bit_set bytes v =
  let i = v lsr 3 in
  Bytes.unsafe_set bytes i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes i) lor (1 lsl (v land 7))))

(* Run bounds of the row being built, grown by doubling and reused
   across rows; each row keeps an exact-length copy. *)
type runs = {
  mutable bounds : int array;
  mutable len : int;
}

let push runs v =
  if runs.len = Array.length runs.bounds then begin
    let grown = Array.make (2 * runs.len) 0 in
    Array.blit runs.bounds 0 grown 0 runs.len;
    runs.bounds <- grown
  end;
  Array.unsafe_set runs.bounds runs.len v;
  runs.len <- runs.len + 1

(* A Pareto list: (value, cost) pairs in descending value order with
   strictly descending costs, in [count] cells of two arrays sized once
   per solve. Its step function f(v), the cost of the last pair whose value
   is >= v (infinite above the first), is the dp row of the
   value-dimension DP: the cheapest cost of a value >= v. *)
type plist = {
  values : int array;
  costs : int array;
  mutable count : int;
}

(* Where a merge of P_{i-1} ([old]) with P_{i-1} shifted by the item's
   (w, c) stands: the next old pair [i], the next shifted pair [j], the
   [n] pairs of P_i kept so far, the lowest cost [best] among all pairs
   consumed, the cost [last_old] of the last old pair consumed
   ([infinite_cost] before the first) and the value [v] of the last
   pair consumed. *)
type cursor = {
  mutable i : int;
  mutable j : int;
  mutable n : int;
  mutable best : int;
  mutable last_old : int;
  mutable v : int;
}

(* Merge in descending value order until the shifted list runs out or
   [best < last_old] stops being [running]. A pair is kept only if its
   cost is below every cost consumed so far, and of two pairs with one
   value, the cheaper; one that costs [infinite_cost] or more is never
   kept, as the DP never stores such a candidate. The loop makes no
   call, so its counters stay in registers; the caller records the rare
   run bound. *)
let scan old next ~w ~c ~running k =
  let ov = old.values and oc = old.costs and m = old.count in
  let nv = next.values and nc = next.costs in
  let i = ref k.i and j = ref k.j and n = ref k.n and best = ref k.best in
  let last_old = ref k.last_old and v = ref k.v and cost = ref 0 in
  let go = ref true in
  while !go && !j < m do
    let x = Array.unsafe_get ov !i and y = Array.unsafe_get ov !j + w in
    if y > x then begin
      v := y;
      cost := Array.unsafe_get oc !j + c;
      incr j
    end
    else begin
      let cx = Array.unsafe_get oc !i in
      last_old := cx;
      v := x;
      incr i;
      if y < x then cost := cx
      else begin
        let cy = Array.unsafe_get oc !j + c in
        cost := if cx <= cy then cx else cy;
        incr j
      end
    end;
    if !cost < !best then begin
      Array.unsafe_set nv !n !v;
      Array.unsafe_set nc !n !cost;
      incr n;
      best := !cost
    end;
    go := !best < !last_old = running
  done;
  k.i <- !i;
  k.j <- !j;
  k.n <- !n;
  k.best <- !best;
  k.last_old <- !last_old;
  k.v <- !v

(* P_i into [next], and item i's take runs into [runs], in one pass.
   Once the merge has consumed every pair with value >= u, [best] is
   f(P_i) on (u', u], u' the next value consumed, and [last_old] is
   f(P_{i-1}) there. The item took v where the first is below the
   second, so a run opens or closes only where that comparison changes.

   The shifted list's last value is above the old one's, so it runs out
   first. Of the old pairs left, those that cost [best] or more are
   dropped (one that costs exactly [best] ends a run), and the rest are
   kept, f(P_i) = f(P_{i-1}) on them. *)
let merge old ~w ~c next runs =
  let ov = old.values and oc = old.costs and m = old.count in
  let k =
    { i = 0; j = 0; n = 0; best = infinite_cost; last_old = infinite_cost; v = 0 }
  in
  let running = ref false in
  runs.len <- 0;
  while k.j < m do
    scan old next ~w ~c ~running:!running k;
    if k.best < k.last_old <> !running then begin
      push runs (if !running then k.v + 1 else k.v);
      running := not !running
    end
  done;
  let i = ref k.i in
  while !i < m && Array.unsafe_get oc !i >= k.best do
    if !running && Array.unsafe_get oc !i = k.best then begin
      push runs (Array.unsafe_get ov !i + 1);
      running := false
    end;
    incr i
  done;
  if !running then push runs (if !i < m then Array.unsafe_get ov !i + 1 else 1);
  let rest = m - !i in
  Array.blit ov !i next.values k.n rest;
  Array.blit oc !i next.costs k.n rest;
  next.count <- k.n + rest

(* The exact list DP of Nemhauser and Ullmann: P_i is the Pareto set of
   (value, cost) over items 0..i, and f(P_i) is the dp row the
   value-dimension sweep computes after item i, so the take runs, the
   frontier (P_n) and every [select] are the same as that sweep's.
   Costs along a list strictly increase from 0 as values do, so no list
   holds more than min(Σvalue, Σcost) + 1 pairs: the four buffers are
   sized to that once. *)
let solve items =
  Telemetry.span "knapsack.solve" @@ fun () ->
  List.iter
    (fun item ->
      if item.cost < 0 then
        invalid_arg (Printf.sprintf "Knapsack.solve: negative cost %d" item.cost))
    items;
  let items =
    List.filter (fun item -> item.value > 0) items
    |> List.sort (fun a b -> Site.compare_pc a.pc b.pc)
    |> Array.of_list
  in
  let total_value = Array.fold_left (fun acc item -> acc + item.value) 0 items in
  let bound =
    Array.fold_left
      (fun acc item -> Int.min total_value (acc + Int.min item.cost total_value))
      0 items
  in
  let plist () =
    { values = Array.make (bound + 1) 0; costs = Array.make (bound + 1) 0; count = 1 }
  in
  let old = ref (plist ()) and next = ref (plist ()) in
  let take = Array.make (Array.length items) [||] in
  let runs = { bounds = Array.make 64 0; len = 0 } in
  let take_bytes = ref 0 and pareto_points = ref 0 in
  for i = 0 to Array.length items - 1 do
    pareto_points := !pareto_points + !old.count;
    merge !old ~w:items.(i).value ~c:items.(i).cost !next runs;
    take.(i) <- Array.sub runs.bounds 0 runs.len;
    take_bytes := !take_bytes + (8 * runs.len);
    let p = !old in
    old := !next;
    next := p
  done;
  (* The frontier is P_n without a pair of value 0, ascending in v. *)
  let final = !old in
  let n = if final.values.(final.count - 1) = 0 then final.count - 1 else final.count in
  let frontier = Bytes.make ((total_value / 8) + 1) '\000' in
  let frontier_costs = Array.make n 0 in
  for k = 0 to n - 1 do
    bit_set frontier final.values.(k);
    frontier_costs.(n - 1 - k) <- final.costs.(k)
  done;
  Telemetry.incr m_solves;
  Telemetry.add m_items (Array.length items);
  Telemetry.add m_pareto_points !pareto_points;
  Telemetry.add m_take_bytes !take_bytes;
  Telemetry.observe h_pareto_points !pareto_points;
  { items; take; frontier; frontier_costs; total_value }

let integer_target ~total fraction =
  if not (Float.is_finite fraction) then
    invalid_arg (Printf.sprintf "Knapsack.integer_target: non-finite target %g" fraction);
  let total_f = float_of_int total in
  int_of_float (Float.min total_f (Float.max 0.0 (ceil (fraction *. total_f))))

let max_value s = s.total_value

type selection = {
  pcs : Site.pc list;
  value : int;
  cost : int;
}

(* Whether v lies in one of a row's runs. The lower bounds lo_k =
   row.(2k+1) descend, so binary-search the first run with lo_k <= v;
   v is in it iff v <= its hi. *)
let took row v =
  let lo = ref 0 and hi = ref (Array.length row / 2) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get row ((2 * mid) + 1) <= v then hi := mid else lo := mid + 1
  done;
  !lo < Array.length row / 2 && v <= Array.unsafe_get row (2 * !lo)

let select s ~target =
  if target <= 0 then { pcs = []; value = 0; cost = 0 }
  else begin
    let target = min target s.total_value in
    let v = ref target in
    let pcs = ref [] in
    let value = ref 0 in
    let cost = ref 0 in
    for i = Array.length s.items - 1 downto 0 do
      if !v > 0 && took s.take.(i) !v then begin
        let item = s.items.(i) in
        pcs := item.pc :: !pcs;
        value := !value + item.value;
        cost := !cost + item.cost;
        v := max 0 (!v - item.value)
      end
    done;
    { pcs = !pcs; value = !value; cost = !cost }
  end

(* Every frontier pair is achieved *exactly*: the cheapest selection
   with value >= v has cost dp(v) and, since v is the largest value at
   that cost, value exactly v — which is what lets a caller reconstruct
   a frontier point with [select ~target:v] and get back precisely
   (v, dp v). *)
let points s =
  let pts = ref [] and k = ref (Array.length s.frontier_costs) in
  for v = s.total_value downto 1 do
    if bit_get s.frontier v then begin
      decr k;
      pts := (v, s.frontier_costs.(!k)) :: !pts
    end
  done;
  (0, 0) :: !pts

let items_of_valuation (valuation : Valuation.t) =
  List.map
    (fun (pc, value) -> { pc; value; cost = Valuation.cost_of valuation pc })
    valuation.Valuation.values
