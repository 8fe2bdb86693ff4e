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

(* Run bounds of the row being swept, grown by doubling and reused
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

(* Row i only sweeps v in [1, S_i], S_i = Σ value over items 0..i: before
   item i, dp.(u) = infinite_cost for every u > S_{i-1}, so a cell above
   S_i reads prev = infinite_cost and can never improve. The sweep
   splits at the item's value: at or below it, max 0 (v - value) = 0 and
   prev = dp.(0) = 0. The descending order and the strict [<] are the
   same as in a full-width sweep, so dp and every take bit are too.
   A run opens at the first improved cell and closes at the first cell
   that does not improve, across the split; one still open at v = 1
   closes there. *)
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
  let take = Array.make (Array.length items) [||] in
  let runs = { bounds = Array.make 64 0; len = 0 } in
  let take_bytes = ref 0 in
  let s = ref 0 in
  for i = 0 to Array.length items - 1 do
    let w = items.(i).value and c = items.(i).cost in
    s := !s + w;
    let s = !s in
    runs.len <- 0;
    let running = ref false in
    (* v in (w, S_i]: 1 <= v - w <= S_{i-1}, and S_i <= total_value *)
    for v = s downto w + 1 do
      let prev = Array.unsafe_get dp (v - w) in
      let candidate = prev + c in
      if prev < infinite_cost && candidate < Array.unsafe_get dp v then begin
        Array.unsafe_set dp v candidate;
        if not !running then begin
          push runs v;
          running := true
        end
      end
      else if !running then begin
        push runs (v + 1);
        running := false
      end
    done;
    (* v in [1, w]: prev = dp.(0) = 0 *)
    for v = w downto 1 do
      if c < Array.unsafe_get dp v then begin
        Array.unsafe_set dp v c;
        if not !running then begin
          push runs v;
          running := true
        end
      end
      else if !running then begin
        push runs (v + 1);
        running := false
      end
    done;
    if !running then push runs 1;
    take.(i) <- Array.sub runs.bounds 0 runs.len;
    take_bytes := !take_bytes + (8 * runs.len)
  done;
  (* dp is monotone nondecreasing in v, so the frontier is the values v
     where dp strictly increases at v+1 (or v is the total). Counted,
     then filled: no intermediate list. *)
  let on_frontier v =
    dp.(v) < infinite_cost && (v = total_value || dp.(v) < dp.(v + 1))
  in
  let frontier = Bytes.make ((total_value / 8) + 1) '\000' in
  let n = ref 0 in
  for v = 1 to total_value do
    if on_frontier v then begin
      bit_set frontier v;
      incr n
    end
  done;
  let frontier_costs = Array.make !n 0 in
  let n = ref 0 in
  for v = 1 to total_value do
    if on_frontier v then begin
      frontier_costs.(!n) <- dp.(v);
      incr n
    end
  done;
  Telemetry.incr m_solves;
  Telemetry.add m_items (Array.length items);
  Telemetry.add m_dp_cells (total_value + 1);
  Telemetry.add m_take_bytes !take_bytes;
  Telemetry.observe h_dp_cells (total_value + 1);
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
