open Ff_ir
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

let trap t = raise (Trap t)

let as_int = function Value.Int w -> w | Value.Float _ -> trap Type_confusion
let as_float = function Value.Float x -> x | Value.Int _ -> trap Type_confusion

let int64_max_float = 9.223372036854775808e18

let eval_ibin op a b =
  let open Int64 in
  match op with
  | Instr.Iadd -> add a b
  | Instr.Isub -> sub a b
  | Instr.Imul -> mul a b
  | Instr.Idiv -> if equal b 0L then trap Div_by_zero else div a b
  | Instr.Irem -> if equal b 0L then trap Div_by_zero else rem a b
  | Instr.Iand -> logand a b
  | Instr.Ior -> logor a b
  | Instr.Ixor -> logxor a b
  | Instr.Ishl -> shift_left a (to_int b land 63)
  | Instr.Ilshr -> shift_right_logical a (to_int b land 63)
  | Instr.Iashr -> shift_right a (to_int b land 63)
  | Instr.Irotl ->
    let s = to_int b land 63 in
    if s = 0 then a else logor (shift_left a s) (shift_right_logical a (64 - s))
  | Instr.Irotr ->
    let s = to_int b land 63 in
    if s = 0 then a else logor (shift_right_logical a s) (shift_left a (64 - s))
  | Instr.Imin -> if compare a b <= 0 then a else b
  | Instr.Imax -> if compare a b >= 0 then a else b

let eval_fbin op a b =
  match op with
  | Instr.Fadd -> a +. b
  | Instr.Fsub -> a -. b
  | Instr.Fmul -> a *. b
  | Instr.Fdiv -> a /. b
  | Instr.Fmin -> Float.min a b
  | Instr.Fmax -> Float.max a b
  | Instr.Fpow -> Float.pow a b

let eval_funop op a =
  match op with
  | Instr.FFneg -> -.a
  | Instr.FFabs -> Float.abs a
  | Instr.FFsqrt -> sqrt a
  | Instr.FFexp -> exp a
  | Instr.FFlog -> log a
  | Instr.FFsin -> sin a
  | Instr.FFcos -> cos a
  | Instr.FFfloor -> Float.floor a
  | Instr.FFceil -> Float.ceil a

let eval_iun op a =
  match op with
  | Instr.Ineg -> Int64.neg a
  | Instr.Inot -> Int64.lognot a

let eval_icmp c a b =
  let r = Int64.compare a b in
  match c with
  | Instr.Ceq -> r = 0
  | Instr.Cne -> r <> 0
  | Instr.Clt -> r < 0
  | Instr.Cle -> r <= 0
  | Instr.Cgt -> r > 0
  | Instr.Cge -> r >= 0

let eval_fcmp c a b =
  (* IEEE semantics: all ordered comparisons with NaN are false except <>. *)
  match c with
  | Instr.Ceq -> a = b
  | Instr.Cne -> a <> b
  | Instr.Clt -> a < b
  | Instr.Cle -> a <= b
  | Instr.Cgt -> a > b
  | Instr.Cge -> a >= b

let eval_cast c v =
  match c with
  | Instr.Itof -> Value.Float (Int64.to_float (as_int v))
  | Instr.Ftoi ->
    let x = as_float v in
    if Float.is_nan x || x >= int64_max_float || x < -.int64_max_float then
      trap Invalid_conversion
    else Value.Int (Int64.of_float x)
  | Instr.Fbits -> Value.Int (Int64.bits_of_float (as_float v))
  | Instr.Bitsf -> Value.Float (Int64.float_of_bits (as_int v))

(* Bounds-checked buffer access: the one place an out-of-range index
   becomes an [Out_of_bounds] trap. *)
let load_slot buffers slot idx =
  let store = buffers.(slot) in
  if idx < 0L || idx >= Int64.of_int (Array.length store) then trap Out_of_bounds
  else store.(Int64.to_int idx)

let store_slot buffers slot idx v =
  let store = buffers.(slot) in
  if idx < 0L || idx >= Int64.of_int (Array.length store) then trap Out_of_bounds
  else store.(Int64.to_int idx) <- v

let step regs buffers instr ~pc =
  match instr with
  | Instr.Mov (d, s) ->
    regs.(d) <- regs.(s);
    pc + 1
  | Instr.Iconst (d, v) ->
    regs.(d) <- Value.Int v;
    pc + 1
  | Instr.Fconst (d, v) ->
    regs.(d) <- Value.Float v;
    pc + 1
  | Instr.Ibin (op, d, a, b) ->
    regs.(d) <- Value.Int (eval_ibin op (as_int regs.(a)) (as_int regs.(b)));
    pc + 1
  | Instr.Fbin (op, d, a, b) ->
    regs.(d) <- Value.Float (eval_fbin op (as_float regs.(a)) (as_float regs.(b)));
    pc + 1
  | Instr.Iun (op, d, a) ->
    regs.(d) <- Value.Int (eval_iun op (as_int regs.(a)));
    pc + 1
  | Instr.Fun1 (op, d, a) ->
    regs.(d) <- Value.Float (eval_funop op (as_float regs.(a)));
    pc + 1
  | Instr.Icmp (c, d, a, b) ->
    regs.(d) <- Value.Int (if eval_icmp c (as_int regs.(a)) (as_int regs.(b)) then 1L else 0L);
    pc + 1
  | Instr.Fcmp (c, d, a, b) ->
    regs.(d) <-
      Value.Int (if eval_fcmp c (as_float regs.(a)) (as_float regs.(b)) then 1L else 0L);
    pc + 1
  | Instr.Cast (c, d, a) ->
    regs.(d) <- eval_cast c regs.(a);
    pc + 1
  | Instr.Select (d, c, a, b) ->
    regs.(d) <- (if as_int regs.(c) <> 0L then regs.(a) else regs.(b));
    pc + 1
  | Instr.Load (d, slot, i) ->
    regs.(d) <- load_slot buffers slot (as_int regs.(i));
    pc + 1
  | Instr.Store (slot, i, v) ->
    store_slot buffers slot (as_int regs.(i)) regs.(v);
    pc + 1
  | Instr.Jmp l -> l
  | Instr.Br (c, l1, l2) -> if as_int regs.(c) <> 0L then l1 else l2
  | Instr.Halt -> -1

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

let exec (kernel : Kernel.t) ~scalars ~buffers ~budget ?decoded ?injection ?(burst = 1)
    ?trace () =
  let nbufs = List.length (Kernel.buffer_params kernel) in
  if Array.length buffers <> nbufs then
    invalid_arg "Machine.exec: buffer arity mismatch";
  let scalar_tys = List.map snd (Kernel.scalar_params kernel) in
  if List.length scalars <> List.length scalar_tys then
    invalid_arg "Machine.exec: scalar arity mismatch";
  List.iter2
    (fun v ty ->
      if not (Value.ty_equal (Value.ty v) ty) then
        invalid_arg "Machine.exec: scalar type mismatch")
    scalars scalar_tys;
  let regs = Array.make kernel.Kernel.nregs (Value.Int 0L) in
  List.iteri (fun i v -> regs.(i) <- v) scalars;
  let code = kernel.Kernel.code in
  let executed = ref 0 in
  let inj_dyn, inj_operand, inj_bit =
    match injection with
    | Some { at_dyn; operand; bit } -> (at_dyn, operand, bit)
    | None -> (-1, Odst, 0)
  in
  let record =
    match trace with
    | Some t -> fun pc -> Trace.add t pc
    | None -> fun _ -> ()
  in
  let flip_bits = burst_bits ~bit:inj_bit ~burst in
  let flip_reg r = List.iter (fun b -> regs.(r) <- Value.flip_bit regs.(r) b) flip_bits in
  (* Operand addressing for the flip: the decoded operand tables when the
     caller already paid for them (replays do), a non-allocating
     [Instr.src]/[Instr.dst_index] walk otherwise. *)
  let flip_src pc instr k =
    match decoded with
    | Some d ->
      let ss = Decode.srcs_at d pc in
      if k < Array.length ss then flip_reg ss.(k)
    | None -> (
      match Instr.src instr k with
      | Some r -> flip_reg r
      | None -> ())
  in
  let flip_dst pc instr =
    let d =
      match decoded with
      | Some dec -> Decode.dst_at dec pc
      | None -> Instr.dst_index instr
    in
    if d >= 0 then flip_reg d
  in
  let result =
    try
      let pc = ref 0 in
      let continue = ref true in
      let status = ref Finished in
      while !continue do
        if !executed >= budget then begin
          status := Out_of_budget;
          continue := false
        end
        else begin
          let instr = code.(!pc) in
          record !pc;
          let dyn = !executed in
          executed := dyn + 1;
          let injecting = dyn = inj_dyn in
          if injecting && inj_operand = Oskip then begin
            (* The faulted instruction is fetched (it records and counts)
               but never executed: control falls through, and running off
               the end of the code is a defined trap. *)
            let nx = !pc + 1 in
            if nx >= Array.length code then trap Type_confusion;
            pc := nx
          end
          else begin
            let instr =
              if not (injecting && inj_operand = Oenc) then instr
              else
                match decoded with
                | None ->
                  invalid_arg "Machine.exec: an encoding injection requires ~decoded"
                | Some d -> (
                  match Decode.corrupt d ~pc:!pc ~bit:inj_bit with
                  | Some corrupted -> corrupted
                  | None -> trap Type_confusion)
            in
            if injecting then begin
              match inj_operand with
              | Osrc k -> flip_src !pc instr k
              | Odst | Oskip | Oenc -> ()
            end;
            let nx = step regs buffers instr ~pc:!pc in
            if injecting && inj_operand = Odst then flip_dst !pc instr;
            if nx < 0 then continue := false else pc := nx
          end
        end
      done;
      !status
    with Trap t -> Trapped t
  in
  telemetry_record result ~executed:!executed;
  { status = result; executed = !executed }

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
