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

(* {2 Encoding corruption}

   A packed instruction is five fields (opcode, a, b, c, dst); an encoding
   fault flips one bit of one field for one dynamic execution. Fields are
   addressed 8 bits apart so a site's bit index reads as
   [field * 8 + bit-in-field]; only the low [encoding_field_bits] bits of
   each field are flippable — beyond them every program in the suite
   decodes to the same trap and the sites would be pure noise. *)

let encoding_field_bits = 6

let encoding_bits =
  List.concat
    (List.init 5 (fun field -> List.init encoding_field_bits (fun b -> (field * 8) + b)))

type step_env = {
  se_read : int -> Value.t;
  se_write : int -> Value.t -> unit;
  se_load : int -> int64 -> Value.t;
  se_store : int -> int64 -> Value.t -> unit;
}

(* Inverse opcode dispatch. [Decode] packs each tag enum densely in
   declaration order starting at the family's base opcode; these tables are
   that mapping run backwards and must stay in sync with it — the
   differential suite holds both engines to the same corrupted-step
   semantics, so a mismatch here fails loudly. *)
let cast_of_code = function
  | 0 -> Instr.Itof
  | 1 -> Instr.Ftoi
  | 2 -> Instr.Fbits
  | _ -> Instr.Bitsf

let iunop_of_code = function 0 -> Instr.Ineg | _ -> Instr.Inot

let ibinop_of_code = function
  | 0 -> Instr.Iadd
  | 1 -> Instr.Isub
  | 2 -> Instr.Imul
  | 3 -> Instr.Idiv
  | 4 -> Instr.Irem
  | 5 -> Instr.Iand
  | 6 -> Instr.Ior
  | 7 -> Instr.Ixor
  | 8 -> Instr.Ishl
  | 9 -> Instr.Ilshr
  | 10 -> Instr.Iashr
  | 11 -> Instr.Irotl
  | 12 -> Instr.Irotr
  | 13 -> Instr.Imin
  | _ -> Instr.Imax

let fbinop_of_code = function
  | 0 -> Instr.Fadd
  | 1 -> Instr.Fsub
  | 2 -> Instr.Fmul
  | 3 -> Instr.Fdiv
  | 4 -> Instr.Fmin
  | 5 -> Instr.Fmax
  | _ -> Instr.Fpow

let funop_of_code = function
  | 0 -> Instr.FFneg
  | 1 -> Instr.FFabs
  | 2 -> Instr.FFsqrt
  | 3 -> Instr.FFexp
  | 4 -> Instr.FFlog
  | 5 -> Instr.FFsin
  | 6 -> Instr.FFcos
  | 7 -> Instr.FFfloor
  | _ -> Instr.FFceil

let cmp_of_code = function
  | 0 -> Instr.Ceq
  | 1 -> Instr.Cne
  | 2 -> Instr.Clt
  | 3 -> Instr.Cle
  | 4 -> Instr.Cgt
  | _ -> Instr.Cge

(* Execute one instruction whose packed encoding has [bit] XORed in,
   re-validating the corrupted tuple against the decode tables first so an
   illegal encoding is a defined [Type_confusion] trap, never UB. Returns
   the next pc, or -1 for halt. The shared [step_env] is what keeps the
   boxed and unboxed engines bit-identical under this model: both funnel
   their state through the same dispatch below. *)
let exec_corrupt_step (d : Decode.t) ~pc ~bit env =
  let n = Decode.length d in
  let nregs = d.Decode.nregs and nbufs = d.Decode.nbufs in
  let field = bit / 8 and mask = 1 lsl (bit land 7) in
  if bit < 0 || field > 4 || bit land 7 >= encoding_field_bits then trap Type_confusion;
  let x f v = if field = f then v lxor mask else v in
  let op = x 0 d.Decode.ops.(pc) in
  let a = x 1 d.Decode.a.(pc) in
  let b = x 2 d.Decode.b.(pc) in
  let c = x 3 d.Decode.c.(pc) in
  let dst = x 4 d.Decode.dst.(pc) in
  let reg r = if r < 0 || r >= nregs then trap Type_confusion in
  let lab l = if l < 0 || l >= n then trap Type_confusion in
  let slot s = if s < 0 || s >= nbufs then trap Type_confusion in
  let fall () =
    let nx = pc + 1 in
    if nx >= n then trap Type_confusion;
    nx
  in
  if op < Decode.o_halt || op > Decode.o_fcmp + 5 then trap Type_confusion;
  if op = Decode.o_halt then -1
  else if op = Decode.o_mov then begin
    reg a;
    reg dst;
    let nx = fall () in
    env.se_write dst (env.se_read a);
    nx
  end
  else if op = Decode.o_iconst then begin
    reg dst;
    let nx = fall () in
    env.se_write dst (Value.Int d.Decode.imm.(pc));
    nx
  end
  else if op = Decode.o_fconst then begin
    reg dst;
    let nx = fall () in
    env.se_write dst (Value.Float (Int64.float_of_bits d.Decode.imm.(pc)));
    nx
  end
  else if op = Decode.o_jmp then begin
    lab a;
    a
  end
  else if op = Decode.o_br then begin
    reg a;
    lab b;
    lab c;
    if as_int (env.se_read a) <> 0L then b else c
  end
  else if op = Decode.o_select then begin
    reg a;
    reg b;
    reg c;
    reg dst;
    let nx = fall () in
    env.se_write dst (if as_int (env.se_read a) <> 0L then env.se_read b else env.se_read c);
    nx
  end
  else if op = Decode.o_load then begin
    reg a;
    slot b;
    reg dst;
    let nx = fall () in
    env.se_write dst (env.se_load b (as_int (env.se_read a)));
    nx
  end
  else if op = Decode.o_store then begin
    reg a;
    reg b;
    slot c;
    let nx = fall () in
    env.se_store c (as_int (env.se_read a)) (env.se_read b);
    nx
  end
  else begin
    (* Every remaining opcode is a register compute op: dst <- f(a[, b]). *)
    reg a;
    reg dst;
    let nx = fall () in
    let binary_b () =
      reg b;
      env.se_read b
    in
    let v =
      if op < Decode.o_iun then eval_cast (cast_of_code (op - Decode.o_cast)) (env.se_read a)
      else if op < Decode.o_ibin then
        Value.Int (eval_iun (iunop_of_code (op - Decode.o_iun)) (as_int (env.se_read a)))
      else if op < Decode.o_fbin then
        let vb = binary_b () in
        Value.Int (eval_ibin (ibinop_of_code (op - Decode.o_ibin)) (as_int (env.se_read a)) (as_int vb))
      else if op < Decode.o_fun then
        let vb = binary_b () in
        Value.Float
          (eval_fbin (fbinop_of_code (op - Decode.o_fbin)) (as_float (env.se_read a)) (as_float vb))
      else if op < Decode.o_icmp then
        Value.Float (eval_funop (funop_of_code (op - Decode.o_fun)) (as_float (env.se_read a)))
      else if op < Decode.o_fcmp then
        let vb = binary_b () in
        Value.Int
          (if eval_icmp (cmp_of_code (op - Decode.o_icmp)) (as_int (env.se_read a)) (as_int vb)
           then 1L
           else 0L)
      else
        let vb = binary_b () in
        Value.Int
          (if eval_fcmp (cmp_of_code (op - Decode.o_fcmp)) (as_float (env.se_read a)) (as_float vb)
           then 1L
           else 0L)
    in
    env.se_write dst v;
    nx
  end

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
          else if injecting && inj_operand = Oenc then begin
            let d =
              match decoded with
              | Some d -> d
              | None -> invalid_arg "Machine.exec: an encoding injection requires ~decoded"
            in
            let env =
              {
                se_read = (fun r -> regs.(r));
                se_write = (fun r v -> regs.(r) <- v);
                se_load = load_slot buffers;
                se_store = store_slot buffers;
              }
            in
            let nx = exec_corrupt_step d ~pc:!pc ~bit:inj_bit env in
            if nx < 0 then continue := false else pc := nx
          end
          else begin
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
