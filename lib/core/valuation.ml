open Ff_inject
module Golden = Ff_vm.Golden
module Propagate = Ff_chisel.Propagate

type class_label = {
  cls : Eqclass.t;
  bad : bool;
}

type t = {
  epsilon : float;
  values : (Site.pc * int) list;
  total_value : int;
  costs : (Site.pc * int) list;
  total_cost : int;
  labels : class_label list;
}

let value_of t pc =
  match List.assoc_opt pc t.values with Some v -> v | None -> 0

let cost_of t pc =
  match List.assoc_opt pc t.costs with Some c -> c | None -> 0

(* c(pc): dynamic instances of every static instruction over the trace. *)
let costs_of_golden (golden : Golden.t) =
  let table : (Site.pc, int) Hashtbl.t = Hashtbl.create 256 in
  let total = ref 0 in
  Array.iter
    (fun (section : Golden.section_run) ->
      Array.iter
        (fun instr_idx ->
          let pc = { Site.kernel = section.Golden.kernel_index; instr = instr_idx } in
          Hashtbl.replace table pc (1 + Option.value ~default:0 (Hashtbl.find_opt table pc));
          incr total)
        section.Golden.trace)
    golden.Golden.sections;
  let costs =
    Hashtbl.fold (fun pc count acc -> (pc, count) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> Site.compare_pc a b)
  in
  (costs, !total)

let finish golden epsilon labels =
  let values_table : (Site.pc, int) Hashtbl.t = Hashtbl.create 256 in
  let total_value = ref 0 in
  List.iter
    (fun { cls; bad } ->
      if bad then begin
        let pc = Eqclass.pc cls in
        let size = Eqclass.size cls in
        Hashtbl.replace values_table pc
          (size + Option.value ~default:0 (Hashtbl.find_opt values_table pc));
        total_value := !total_value + size
      end)
    labels;
  let values =
    Hashtbl.fold (fun pc v acc -> (pc, v) :: acc) values_table []
    |> List.sort (fun (a, _) (b, _) -> Site.compare_pc a b)
  in
  let costs, total_cost = costs_of_golden golden in
  { epsilon; values; total_value = !total_value; costs; total_cost; labels }

let of_fastflip golden ~propagation ~sections ~epsilon =
  if Array.length sections <> Array.length golden.Golden.sections then
    invalid_arg "Valuation.of_fastflip: one campaign result per section required";
  let outputs =
    Ff_ir.Program.output_buffers golden.Golden.program |> List.map fst
  in
  let labels =
    Array.to_list sections
    |> List.concat_map (fun (result : Campaign.section_result) ->
           let section = result.Campaign.section_index in
           Array.to_list result.Campaign.s_classes
           |> List.map (fun (cls, outcome) ->
                  let bad =
                    match (outcome : Outcome.section_outcome) with
                    | Outcome.S_detected _ -> false
                    | Outcome.S_sdc magnitudes ->
                      List.exists
                        (fun output ->
                          Propagate.bound_for_injection propagation ~output ~section
                            ~magnitudes
                          > epsilon)
                        outputs
                  in
                  { cls; bad }))
  in
  finish golden epsilon labels

let of_baseline golden ~baseline ~epsilon =
  let labels =
    Array.to_list baseline.Campaign.b_classes
    |> List.map (fun (cls, outcome) ->
           { cls; bad = Outcome.final_is_bad ~epsilon outcome })
  in
  finish golden epsilon labels

let with_untested t untested =
  let add_value values (pc, count) =
    let rec go = function
      | [] -> [ (pc, count) ]
      | (p, v) :: rest when p = pc -> (p, v + count) :: rest
      | entry :: rest -> entry :: go rest
    in
    go values
  in
  let values =
    List.fold_left add_value t.values untested
    |> List.sort (fun (a, _) (b, _) -> Site.compare_pc a b)
  in
  let extra = List.fold_left (fun acc (_, c) -> acc + c) 0 untested in
  { t with values; total_value = t.total_value + extra }

let bad_labels_in_section t ~section =
  List.filter
    (fun { cls; bad } -> bad && fst cls.Eqclass.group.Eqclass.g_representative = section)
    t.labels

let value_fraction t ~selected =
  if t.total_value = 0 then 0.0
  else begin
    let sum = List.fold_left (fun acc pc -> acc + value_of t pc) 0 selected in
    float_of_int sum /. float_of_int t.total_value
  end

let cost_fraction t ~selected =
  if t.total_cost = 0 then 0.0
  else begin
    let sum = List.fold_left (fun acc pc -> acc + cost_of t pc) 0 selected in
    float_of_int sum /. float_of_int t.total_cost
  end

let pruned_bad_fraction t ~selected =
  let selected_table = Hashtbl.create 64 in
  List.iter (fun pc -> Hashtbl.replace selected_table pc ()) selected;
  let total = ref 0 in
  let pruned = ref 0 in
  List.iter
    (fun { cls; bad } ->
      if bad && Hashtbl.mem selected_table (Eqclass.pc cls) then begin
        let size = Eqclass.size cls in
        total := !total + size;
        pruned := !pruned + (size - 1)
      end)
    t.labels;
  if !total = 0 then 0.0 else float_of_int !pruned /. float_of_int !total
