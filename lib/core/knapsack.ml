module Site = Ff_inject.Site
module Telemetry = Ff_support.Telemetry

let m_solves = Telemetry.counter "knapsack.solves"
let m_items = Telemetry.counter "knapsack.items"
let m_dp_cells = Telemetry.counter "knapsack.dp_cells"
let m_take_bytes = Telemetry.counter "knapsack.take_bytes"
let h_dp_cells = Telemetry.histogram "knapsack.dp_cells_per_solve"

type item = {
  pc : Site.pc;
  value : int;
  cost : int;
}

type solution = {
  items : item array;
  dp : int array;         (** dp.(v): min cost to reach value >= v *)
  take : Bytes.t array;   (** take.(i) bit v: item i improved dp.(v) *)
  total_value : int;
}

let infinite_cost = max_int / 2

(* Rows are cut at their prefix sum (see [solve]); a bit past the end of
   a row was never set. *)
let bit_get bytes v =
  let i = v lsr 3 in
  i < Bytes.length bytes && Char.code (Bytes.unsafe_get bytes i) land (1 lsl (v land 7)) <> 0

(* Only called with v <= the row's prefix sum, so i is in range. *)
let bit_set bytes v =
  let i = v lsr 3 in
  Bytes.unsafe_set bytes i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes i) lor (1 lsl (v land 7))))

(* Row i only sweeps v in [1, S_i], S_i = Σ value over items 0..i: before
   item i, dp.(u) = infinite_cost for every u > S_{i-1}, so a cell above
   S_i reads prev = infinite_cost and can never improve. The sweep
   splits at the item's value: at or below it, max 0 (v - value) = 0 and
   prev = dp.(0) = 0. The descending order and the strict [<] are the
   same as in a full-width sweep, so dp and every bit [select] can read
   are too. *)
let solve items =
  Telemetry.span "knapsack.solve" @@ fun () ->
  let items =
    List.filter (fun item -> item.value > 0) items
    |> List.sort (fun a b -> Site.compare_pc a.pc b.pc)
    |> Array.of_list
  in
  let total_value = Array.fold_left (fun acc item -> acc + item.value) 0 items in
  let dp = Array.make (total_value + 1) infinite_cost in
  dp.(0) <- 0;
  let take = Array.make (Array.length items) Bytes.empty in
  let take_bytes = ref 0 in
  let s = ref 0 in
  for i = 0 to Array.length items - 1 do
    let w = items.(i).value and c = items.(i).cost in
    s := !s + w;
    let s = !s in
    let row = Bytes.make ((s / 8) + 1) '\000' in
    take.(i) <- row;
    take_bytes := !take_bytes + Bytes.length row;
    (* v in (w, S_i]: 1 <= v - w <= S_{i-1}, and S_i <= total_value *)
    for v = s downto w + 1 do
      let prev = Array.unsafe_get dp (v - w) in
      if prev < infinite_cost then begin
        let candidate = prev + c in
        if candidate < Array.unsafe_get dp v then begin
          Array.unsafe_set dp v candidate;
          bit_set row v
        end
      end
    done;
    (* v in [1, w]: prev = dp.(0) = 0 *)
    for v = w downto 1 do
      if c < Array.unsafe_get dp v then begin
        Array.unsafe_set dp v c;
        bit_set row v
      end
    done
  done;
  Telemetry.incr m_solves;
  Telemetry.add m_items (Array.length items);
  Telemetry.add m_dp_cells (total_value + 1);
  Telemetry.add m_take_bytes !take_bytes;
  Telemetry.observe h_dp_cells (total_value + 1);
  { items; dp; take; total_value }

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

let select s ~target =
  if target <= 0 then { pcs = []; value = 0; cost = 0 }
  else begin
    let target = min target s.total_value in
    let v = ref target in
    let pcs = ref [] in
    let value = ref 0 in
    let cost = ref 0 in
    for i = Array.length s.items - 1 downto 0 do
      if !v > 0 && bit_get s.take.(i) !v then begin
        let item = s.items.(i) in
        pcs := item.pc :: !pcs;
        value := !value + item.value;
        cost := !cost + item.cost;
        v := max 0 (!v - item.value)
      end
    done;
    { pcs = !pcs; value = !value; cost = !cost }
  end

(* The DP's achievable frontier: for each distinct cost, the largest
   value it buys. dp is monotone nondecreasing in v, so the frontier is
   exactly the values v where dp strictly increases at v+1 (or v is the
   total). Every frontier pair is achieved *exactly*: the cheapest
   selection with value >= v has cost dp.(v) and, since v is the largest
   value at that cost, value exactly v — which is what lets a caller
   reconstruct a frontier point with [select ~target:v] and get back
   precisely (v, dp v). *)
let points s =
  let pts = ref [] in
  for v = s.total_value downto 1 do
    if s.dp.(v) < infinite_cost && (v = s.total_value || s.dp.(v) < s.dp.(v + 1)) then
      pts := (v, s.dp.(v)) :: !pts
  done;
  (0, 0) :: !pts

let items_of_valuation (valuation : Valuation.t) =
  List.map
    (fun (pc, value) -> { pc; value; cost = Valuation.cost_of valuation pc })
    valuation.Valuation.values
