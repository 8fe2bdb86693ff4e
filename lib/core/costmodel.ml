module Site = Ff_inject.Site
module Golden = Ff_vm.Golden
module Instr = Ff_ir.Instr
module Kernel = Ff_ir.Kernel

type t =
  | Per_instruction
  | Drift_clustered of float
  | Per_kernel_block

let instruction_of golden (pc : Site.pc) =
  let kernel = List.nth golden.Golden.program.Ff_ir.Program.kernels pc.Site.kernel in
  kernel.Kernel.code.(pc.Site.instr)

let is_computational = function
  | Instr.Ibin _ | Instr.Fbin _ | Instr.Iun _ | Instr.Fun1 _ | Instr.Icmp _
  | Instr.Fcmp _ | Instr.Cast _ | Instr.Select _ | Instr.Mov _ | Instr.Iconst _
  | Instr.Fconst _ -> true
  | Instr.Load _ | Instr.Store _ | Instr.Jmp _ | Instr.Br _ | Instr.Halt -> false

let items model ~valuation ~golden =
  match model with
  | Per_instruction -> Knapsack.items_of_valuation valuation
  | Drift_clustered discount ->
    Knapsack.items_of_valuation valuation
    |> List.map (fun (item : Knapsack.item) ->
           if is_computational (instruction_of golden item.Knapsack.pc) then begin
             let cost =
               max 1 (int_of_float (ceil (float_of_int item.Knapsack.cost *. (1.0 -. discount))))
             in
             { item with Knapsack.cost }
           end
           else item)
  | Per_kernel_block ->
    (* One item per kernel: value = all SDC-Bad sites in it, cost = every
       dynamic instruction it executes over the whole trace. *)
    let values : (int, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (pc, v) ->
        let prior = Option.value ~default:0 (Hashtbl.find_opt values pc.Site.kernel) in
        Hashtbl.replace values pc.Site.kernel (prior + v))
      valuation.Valuation.values;
    let costs : (int, int) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun (section : Golden.section_run) ->
        let k = section.Golden.kernel_index in
        let prior = Option.value ~default:0 (Hashtbl.find_opt costs k) in
        Hashtbl.replace costs k (prior + section.Golden.dyn_count))
      golden.Golden.sections;
    Hashtbl.fold
      (fun kernel value acc ->
        if value = 0 then acc
        else begin
          let cost = Option.value ~default:0 (Hashtbl.find_opt costs kernel) in
          { Knapsack.pc = { Site.kernel; instr = -1 }; value; cost = max 1 cost } :: acc
        end)
      values []
    |> List.sort (fun (a : Knapsack.item) b -> Site.compare_pc a.Knapsack.pc b.Knapsack.pc)

let expand_block_selection ~golden pcs =
  List.concat_map
    (fun (pc : Site.pc) ->
      if pc.Site.instr >= 0 then [ pc ]
      else begin
        let seen = Hashtbl.create 64 in
        Array.iter
          (fun (section : Golden.section_run) ->
            if section.Golden.kernel_index = pc.Site.kernel then
              Array.iter (fun instr -> Hashtbl.replace seen instr ()) section.Golden.trace)
          golden.Golden.sections;
        Hashtbl.fold (fun instr () acc -> { Site.kernel = pc.Site.kernel; instr } :: acc)
          seen []
        |> List.sort Site.compare_pc
      end)
    pcs
