module Telemetry = Ff_support.Telemetry

(* One probe per [exec] call (never per instruction): replays are the
   unit the campaign layers reason about, and per-instruction bumps
   would put an atomic on the interpreter's hottest loop. *)
let m_execs = Telemetry.counter "vm.execs"
let m_instructions = Telemetry.counter "vm.instructions"
let m_timeouts = Telemetry.counter "vm.timeouts"
let m_trap_oob = Telemetry.counter "vm.trap.out_of_bounds"
let m_trap_div = Telemetry.counter "vm.trap.div_by_zero"
let m_trap_conv = Telemetry.counter "vm.trap.invalid_conversion"
let m_trap_confusion = Telemetry.counter "vm.trap.type_confusion"

type trap =
  | Out_of_bounds
  | Div_by_zero
  | Invalid_conversion
  | Type_confusion

type status =
  | Finished
  | Trapped of trap
  | Out_of_budget

type run = {
  status : status;
  executed : int;
}

type operand =
  | Osrc of int
  | Odst
  | Oskip
  | Oenc

type injection = {
  at_dyn : int;
  operand : operand;
  bit : int;
}

exception Trap of trap

let burst_bits ~bit ~burst = List.init (max 1 burst) (fun i -> (bit + i) mod 64)

let telemetry_record status ~executed =
  Telemetry.incr m_execs;
  Telemetry.add m_instructions executed;
  match status with
  | Finished -> ()
  | Out_of_budget -> Telemetry.incr m_timeouts
  | Trapped Out_of_bounds -> Telemetry.incr m_trap_oob
  | Trapped Div_by_zero -> Telemetry.incr m_trap_div
  | Trapped Invalid_conversion -> Telemetry.incr m_trap_conv
  | Trapped Type_confusion -> Telemetry.incr m_trap_confusion

let pp_trap fmt t =
  Format.pp_print_string fmt
    (match t with
    | Out_of_bounds -> "out-of-bounds"
    | Div_by_zero -> "div-by-zero"
    | Invalid_conversion -> "invalid-conversion"
    | Type_confusion -> "type-confusion")

let pp_status fmt = function
  | Finished -> Format.pp_print_string fmt "finished"
  | Trapped t -> Format.fprintf fmt "trapped(%a)" pp_trap t
  | Out_of_budget -> Format.pp_print_string fmt "timeout"
