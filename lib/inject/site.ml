open Ff_vm

type pc = {
  kernel : int;
  instr : int;
}

type operand =
  | Src of int
  | Dst
  | Op
  | Mem of int

type t = {
  section : int;
  dyn : int;
  pc : pc;
  operand : operand;
  bit : int;
}

type bit_policy =
  | All_bits
  | Bit_list of int list

let bits_of_policy = function
  | All_bits -> List.init 64 Fun.id
  | Bit_list bits -> bits

(* The bits a model actually injects at each of its sites: register and
   memory flips use the policy verbatim, a skip has no bit dimension, and
   encoding corruption restricts the policy to the flippable encoding
   field bits so every enumerated site is a real distinct fault. *)
let model_bits model policy =
  match model with
  | Fault_model.Bitflip _ | Fault_model.Memflip _ -> bits_of_policy policy
  | Fault_model.Skip -> [ 0 ]
  | Fault_model.Opcode ->
    List.filter (fun b -> List.mem b Decode.encoding_bits) (bits_of_policy policy)

let compare_pc a b =
  match compare a.kernel b.kernel with 0 -> compare a.instr b.instr | c -> c

let pp_pc fmt { kernel; instr } = Format.fprintf fmt "k%d:%d" kernel instr

let pp_operand fmt = function
  | Src i -> Format.fprintf fmt "src%d" i
  | Dst -> Format.pp_print_string fmt "dst"
  | Op -> Format.pp_print_string fmt "op"
  | Mem b -> Format.fprintf fmt "mem%d" b

let pp fmt t =
  Format.fprintf fmt "s%d@%d %a %a bit%d" t.section t.dyn pp_pc t.pc pp_operand t.operand
    t.bit

let machine_injection t =
  let operand =
    match t.operand with
    | Src i -> Machine.Osrc i
    | Dst -> Machine.Odst
    | Op | Mem _ ->
      (* Which Machine operand an [Op] site means (skip vs encoding) is the
         fault model's call, and a [Mem] site is not a Machine injection at
         all — callers must go through [replay_injection]. *)
      invalid_arg "Site.machine_injection: model-dependent operand"
  in
  { Machine.at_dyn = t.dyn; operand; bit = t.bit }

let replay_injection ~model t =
  match (t.operand, model) with
  | Mem b, _ ->
    let burst =
      match model with Fault_model.Memflip { burst } -> burst | _ -> 1
    in
    Replay.Mem_flip
      { Replay.mf_buffer = b; mf_elem = t.dyn; mf_bits = Machine.burst_bits ~bit:t.bit ~burst }
  | Op, Fault_model.Skip ->
    Replay.Fault { Machine.at_dyn = t.dyn; operand = Machine.Oskip; bit = 0 }
  | Op, _ -> Replay.Fault { Machine.at_dyn = t.dyn; operand = Machine.Oenc; bit = t.bit }
  | (Src _ | Dst), _ -> Replay.Fault (machine_injection t)

(* The distinct program buffers a section binds, ascending: the memory
   targets of the memflip model. A buffer bound to two slots is one
   target, not two. *)
let bound_buffers (section : Golden.section_run) = Array.to_list section.Golden.bound_idx

let count_section ?(model = Fault_model.default) (section : Golden.section_run) policy =
  match model with
  | Fault_model.Bitflip _ ->
    let bits = List.length (bits_of_policy policy) in
    let decoded = section.Golden.decoded in
    Array.fold_left
      (fun acc pc -> acc + (Decode.noperands decoded pc * bits))
      0 section.Golden.trace
  | Fault_model.Skip | Fault_model.Opcode ->
    Array.length section.Golden.trace * List.length (model_bits model policy)
  | Fault_model.Memflip _ ->
    let bits = List.length (bits_of_policy policy) in
    List.fold_left
      (fun acc buf -> acc + (Ustate.dim section.Golden.entry.Ustate.words.(buf) * bits))
      0 (bound_buffers section)

let default_bits =
  Bit_list [ 0; 1; 2; 3; 7; 11; 15; 23; 31; 39; 47; 51; 54; 58; 62; 63 ]
