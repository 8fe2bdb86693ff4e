open Ff_vm

type group = {
  g_pc : Site.pc;
  g_operand : Site.operand;
  g_members : (int * int) array;
  g_representative : int * int;
}

type t = {
  group : group;
  bit : int;
}

let pc t = t.group.g_pc
let operand t = t.group.g_operand
let members t = t.group.g_members

let pilot t =
  let section, dyn = t.group.g_representative in
  { Site.section; dyn; pc = t.group.g_pc; operand = t.group.g_operand; bit = t.bit }

let size t = Array.length t.group.g_members

let members_in_section t section =
  Array.fold_left
    (fun acc (s, _) -> if s = section then acc + 1 else acc)
    0 t.group.g_members

let operand_key = function
  | Site.Src i -> i
  | Site.Dst -> -1
  | Site.Op -> -2
  | Site.Mem b -> -(3 + b)

let compare_group a b =
  match Site.compare_pc a.g_pc b.g_pc with
  | 0 -> compare (operand_key a.g_operand) (operand_key b.g_operand)
  | c -> c

let compare_class a b =
  match compare_group a.group b.group with
  | 0 -> compare a.bit b.bit
  | c -> c

let representative members = members.(Array.length members / 2)

(* Group the dynamic instances of each injectable target of a section,
   keyed by (pc, operand); classes for each bit share the member list.
   Member lists are accumulated in descending trace order (push-front)
   and reversed once on conversion to a group. For register models the
   trace is walked once to build one member list per static pc — traces
   revisit the same few pcs thousands of times, so operands come from the
   decode-time tables ({!Decode.nsrcs}/{!Decode.dst_at}) per static
   instruction rather than being re-derived from the boxed [Instr.t] per
   dynamic instance, and every operand of a pc shares the same member
   list. The skip/opcode models reuse the same walk with the single [Op]
   operand; the memflip model's targets are buffer elements, one group
   per bound buffer. *)
let table_of_section ?(model = Fault_model.default) (section : Golden.section_run) =
  let table : (Site.pc * Site.operand, (int * int) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let si = section.Golden.section_index in
  (match model with
  | Fault_model.Bitflip _ | Fault_model.Skip | Fault_model.Opcode ->
    let decoded = section.Golden.decoded in
    let npc = Decode.length decoded in
    let per_pc_members = Array.make npc [] in
    Array.iteri
      (fun dyn pc_idx -> per_pc_members.(pc_idx) <- (si, dyn) :: per_pc_members.(pc_idx))
      section.Golden.trace;
    for pc_idx = 0 to npc - 1 do
      match per_pc_members.(pc_idx) with
      | [] -> ()
      | members -> (
        let pc = { Site.kernel = section.Golden.kernel_index; instr = pc_idx } in
        match model with
        | Fault_model.Bitflip _ ->
          for i = 0 to Decode.nsrcs decoded pc_idx - 1 do
            Hashtbl.replace table (pc, Site.Src i) (ref members)
          done;
          if Decode.dst_at decoded pc_idx >= 0 then
            Hashtbl.replace table (pc, Site.Dst) (ref members)
        | _ -> Hashtbl.replace table (pc, Site.Op) (ref members))
    done
  | Fault_model.Memflip _ ->
    let pc = { Site.kernel = section.Golden.kernel_index; instr = 0 } in
    List.iter
      (fun buf ->
        let len = Array.length section.Golden.entry_state.(buf) in
        if len > 0 then begin
          let members = List.init len (fun e -> (si, len - 1 - e)) in
          Hashtbl.replace table (pc, Site.Mem buf) (ref members)
        end)
      (Site.bound_buffers section));
  table

let groups_of_table table =
  Hashtbl.fold
    (fun (pc, operand) cell acc ->
      let members = Array.of_list (List.rev !cell) in
      {
        g_pc = pc;
        g_operand = operand;
        g_members = members;
        g_representative = representative members;
      }
      :: acc)
    table []
  |> List.sort compare_group

let groups_of_section ?model section = groups_of_table (table_of_section ?model section)

let classes_of_groups groups bits =
  List.concat_map (fun group -> List.map (fun bit -> { group; bit }) bits) groups
  |> List.sort compare_class

let for_section ?(model = Fault_model.default) section policy =
  classes_of_groups (groups_of_section ~model section) (Site.model_bits model policy)

let for_program ?(model = Fault_model.default) (golden : Golden.t) policy =
  let merged : (Site.pc * Site.operand, (int * int) list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  Array.iter
    (fun section ->
      let table = table_of_section ~model section in
      Hashtbl.iter
        (fun key cell ->
          match Hashtbl.find_opt merged key with
          | Some existing -> existing := !cell @ !existing
          | None -> Hashtbl.replace merged key (ref !cell))
        table)
    golden.Golden.sections;
  (* groups_of_table applies List.rev to each member list, so store the
     merged lists in descending trace order to end up ascending. *)
  Hashtbl.iter
    (fun _ cell -> cell := List.rev (List.sort compare !cell))
    merged;
  classes_of_groups (groups_of_table merged) (Site.model_bits model policy)

let total_sites classes = List.fold_left (fun acc c -> acc + size c) 0 classes
