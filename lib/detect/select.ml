module Site = Ff_inject.Site
module Eqclass = Ff_inject.Eqclass
module Valuation = Fastflip.Valuation
module Knapsack = Fastflip.Knapsack
module Telemetry = Ff_support.Telemetry

let m_candidates = Telemetry.counter "detect.select.candidates"
let m_subsets = Telemetry.counter "detect.select.subsets"
let m_front = Telemetry.counter "detect.select.front_points"

type point = {
  p_value : int;
  p_cost : int;
  p_mask : int;
  p_dup_value : int;
}

type t = {
  t_detectors : Detector.t array;
  t_covered : int array;
  t_classes : (Site.pc * int * int) array;
  t_total_value : int;
  t_items : Knapsack.item list;
  t_pure : Knapsack.solution;
  t_front : point array;
}

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* Residual duplication items for a detector subset: each pc's value
   shrinks by the bad sites the subset already catches there. Never
   negative — a class's sites are a subset of its pc's value mass. *)
let adjusted_items items classes ~mask =
  if mask = 0 then items
  else begin
    let cov = Hashtbl.create 16 in
    Array.iter
      (fun (pc, size, gmask) ->
        if gmask land mask <> 0 then
          Hashtbl.replace cov pc (size + Option.value ~default:0 (Hashtbl.find_opt cov pc)))
      classes;
    List.map
      (fun (it : Knapsack.item) ->
        match Hashtbl.find_opt cov it.Knapsack.pc with
        | None -> it
        | Some c -> { it with Knapsack.value = max 0 (it.Knapsack.value - c) })
      items
  end

let subset_base classes detectors ~mask =
  let base_cost = ref 0 in
  Array.iteri
    (fun i (d : Detector.t) ->
      if mask land (1 lsl i) <> 0 then base_cost := !base_cost + d.Detector.d_cost)
    detectors;
  let base_value = ref 0 in
  Array.iter
    (fun (_, size, gmask) -> if gmask land mask <> 0 then base_value := !base_value + size)
    classes;
  (!base_value, !base_cost)

let build ?(max_detectors = 8) (valuation : Valuation.t) coverages =
  Telemetry.span "detect.select" @@ fun () ->
  if max_detectors < 0 || max_detectors > 16 then
    invalid_arg "Select.build: max_detectors must be in [0, 16]";
  let items = Knapsack.items_of_valuation valuation in
  (* rank (covered desc, section asc, local index asc), cap the pool *)
  let ranked =
    List.sort
      (fun (cov_a, sec_a, j_a, _) (cov_b, sec_b, j_b, _) ->
        if cov_a <> cov_b then compare cov_b cov_a
        else if sec_a <> sec_b then compare sec_a sec_b
        else compare j_a j_b)
      (List.concat_map
         (fun (c : Coverage.t) ->
           List.filteri
             (fun _ (cov, _, _, _) -> cov > 0)
             (Array.to_list
                (Array.mapi
                   (fun j d -> (c.Coverage.c_covered.(j), c.Coverage.c_section, j, d))
                   c.Coverage.c_detectors)))
         coverages)
  in
  let chosen =
    Array.of_list
      (List.filteri (fun i _ -> i < max_detectors) ranked)
  in
  let detectors = Array.map (fun (_, _, _, d) -> d) chosen in
  let covered = Array.map (fun (cov, _, _, _) -> cov) chosen in
  (* remap each caught class's local fired mask onto the global pool *)
  let classes =
    Array.of_list
      (List.concat_map
         (fun (c : Coverage.t) ->
           List.filter_map
             (fun ((cls : Eqclass.t), local_mask) ->
               let gmask = ref 0 in
               Array.iteri
                 (fun g (_, sec, j, _) ->
                   if sec = c.Coverage.c_section && local_mask land (1 lsl j) <> 0
                   then gmask := !gmask lor (1 lsl g))
                 chosen;
               if !gmask = 0 then None
               else Some (Eqclass.pc cls, Eqclass.size cls, !gmask))
             (Array.to_list c.Coverage.c_classes))
         coverages)
  in
  let n = Array.length detectors in
  let pure = Knapsack.solve items in
  (* every subset's residual frontier competes in one global filter *)
  let candidates = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let base_value, base_cost = subset_base classes detectors ~mask in
    let solution =
      if mask = 0 then pure else Knapsack.solve (adjusted_items items classes ~mask)
    in
    List.iter
      (fun (v, c) ->
        candidates :=
          {
            p_value = base_value + v;
            p_cost = base_cost + c;
            p_mask = mask;
            p_dup_value = v;
          }
          :: !candidates)
      (Knapsack.points solution)
  done;
  (* Pareto: cost ascending; keep strictly improving value. Ties prefer
     higher value, then fewer detectors, then lower mask, then smaller
     residual target — a total order, so the front is deterministic. *)
  let sorted =
    List.sort
      (fun a b ->
        if a.p_cost <> b.p_cost then compare a.p_cost b.p_cost
        else if a.p_value <> b.p_value then compare b.p_value a.p_value
        else if popcount a.p_mask <> popcount b.p_mask then
          compare (popcount a.p_mask) (popcount b.p_mask)
        else if a.p_mask <> b.p_mask then compare a.p_mask b.p_mask
        else compare a.p_dup_value b.p_dup_value)
      !candidates
  in
  let front = ref [] in
  let best = ref (-1) in
  List.iter
    (fun p ->
      if p.p_value > !best then begin
        best := p.p_value;
        front := p :: !front
      end)
    sorted;
  let front = Array.of_list (List.rev !front) in
  Telemetry.add m_candidates n;
  Telemetry.add m_subsets (1 lsl n);
  Telemetry.add m_front (Array.length front);
  {
    t_detectors = detectors;
    t_covered = covered;
    t_classes = classes;
    t_total_value = valuation.Valuation.total_value;
    t_items = items;
    t_pure = pure;
    t_front = front;
  }

type selection = {
  sel_detectors : Detector.t array;
  sel_mask : int;
  sel_dup : Knapsack.selection;
  sel_value : int;
  sel_cost : int;
}

let selection_at t ~target =
  let target = min target t.t_total_value in
  let target = max target 0 in
  let point =
    let n = Array.length t.t_front in
    let rec go i =
      if i >= n then t.t_front.(n - 1)  (* front always reaches total value *)
      else if t.t_front.(i).p_value >= target then t.t_front.(i)
      else go (i + 1)
    in
    go 0
  in
  let base_value, base_cost =
    subset_base t.t_classes t.t_detectors ~mask:point.p_mask
  in
  let solution =
    if point.p_mask = 0 then t.t_pure
    else Knapsack.solve (adjusted_items t.t_items t.t_classes ~mask:point.p_mask)
  in
  let dup = Knapsack.select solution ~target:point.p_dup_value in
  let detectors =
    Array.of_list
      (List.filteri
         (fun i _ -> point.p_mask land (1 lsl i) <> 0)
         (Array.to_list t.t_detectors))
  in
  {
    sel_detectors = detectors;
    sel_mask = point.p_mask;
    sel_dup = dup;
    sel_value = base_value + dup.Knapsack.value;
    sel_cost = base_cost + dup.Knapsack.cost;
  }

let pure_points t = Knapsack.points t.t_pure
