open Ff_ir

(* Flat int-coded instruction stream. The opcode space is fully
   flattened: every (constructor, sub-operation) pair gets its own code so
   the unboxed machine dispatches exactly once per dynamic instruction,
   with no second match over a sub-operation variant.

     0  Halt
     1  Mov     d a
     2  Iconst  d imm
     3  Fconst  d imm (bits of the float)
     4  Jmp     a=label
     5  Br      a=cond  b=if-true  c=if-false
     6  Select  d a=cond b=if-true c=if-false
     7  Load    d a=index b=slot
     8  Store     a=index b=value c=slot
     9..12  Cast   (9 + cast_tag)        d a
    13..14  Iun    (13 + iunop_tag)      d a
    15..29  Ibin   (15 + ibinop_tag)     d a b
    30..36  Fbin   (30 + fbinop_tag)     d a b
    37..45  Fun1   (37 + funop_tag)      d a
    46..51  Icmp   (46 + cmp_tag)        d a b
    52..57  Fcmp   (52 + cmp_tag)        d a b

   The decoder also re-validates the static properties the machines rely
   on for unsafe register-file access (registers in range, labels in
   range, buffer slots in range, terminator last), so a decoded kernel
   can be executed without per-instruction bounds checks on anything but
   data-dependent buffer indices. *)

type t = {
  kernel : Kernel.t;
  ops : int array;
  dst : int array;  (* destination register, -1 when none *)
  a : int array;
  b : int array;
  c : int array;
  imm : int64 array;  (* Iconst payload; Fconst payload as raw bits *)
  srcs : int array array;  (* source registers per static instruction *)
  packed : int array;
      (* [op; a; b; c; dst] per instruction, stride 5 — the interpreter
         reads one contiguous run per dispatch instead of touching five
         separate arrays (five cache lines) *)
  nregs : int;
  nbufs : int;
  scalar_tys : Value.scalar_ty array;
}

let stride = 5

let length t = Array.length t.ops

let nsrcs t pc = Array.length t.srcs.(pc)

let srcs_at t pc = t.srcs.(pc)

let dst_at t pc = t.dst.(pc)

let noperands t pc = nsrcs t pc + if t.dst.(pc) >= 0 then 1 else 0

let o_halt = 0
let o_mov = 1
let o_iconst = 2
let o_fconst = 3
let o_jmp = 4
let o_br = 5
let o_select = 6
let o_load = 7
let o_store = 8
let o_cast = 9
let o_iun = 13
let o_ibin = 15
let o_fbin = 30
let o_fun = 37
let o_icmp = 46
let o_fcmp = 52

let of_kernel (kernel : Kernel.t) =
  let code = kernel.Kernel.code in
  let n = Array.length code in
  if n = 0 then invalid_arg "Decode.of_kernel: kernel has no code";
  if not (Instr.is_terminator code.(n - 1)) then
    invalid_arg "Decode.of_kernel: kernel does not end with a terminator";
  let nregs = kernel.Kernel.nregs in
  let nbufs = List.length (Kernel.buffer_params kernel) in
  let check_reg r =
    if r < 0 || r >= nregs then invalid_arg "Decode.of_kernel: register out of range"
  in
  let check_label l =
    if l < 0 || l >= n then invalid_arg "Decode.of_kernel: label out of range"
  in
  let check_slot s =
    if s < 0 || s >= nbufs then invalid_arg "Decode.of_kernel: buffer slot out of range"
  in
  let ops = Array.make n 0 in
  let dst = Array.make n (-1) in
  let a = Array.make n 0 in
  let b = Array.make n 0 in
  let c = Array.make n 0 in
  let imm = Array.make n 0L in
  let srcs = Array.make n [||] in
  Array.iteri
    (fun i instr ->
      (match Instr.dst instr with
      | Some d ->
        check_reg d;
        dst.(i) <- d
      | None -> ());
      let ss = Array.of_list (Instr.srcs instr) in
      Array.iter check_reg ss;
      srcs.(i) <- ss;
      match instr with
      | Instr.Halt -> ops.(i) <- o_halt
      | Instr.Mov (_, s) ->
        ops.(i) <- o_mov;
        a.(i) <- s
      | Instr.Iconst (_, v) ->
        ops.(i) <- o_iconst;
        imm.(i) <- v
      | Instr.Fconst (_, v) ->
        ops.(i) <- o_fconst;
        imm.(i) <- Int64.bits_of_float v
      | Instr.Jmp l ->
        check_label l;
        ops.(i) <- o_jmp;
        a.(i) <- l
      | Instr.Br (cond, l1, l2) ->
        check_label l1;
        check_label l2;
        ops.(i) <- o_br;
        a.(i) <- cond;
        b.(i) <- l1;
        c.(i) <- l2
      | Instr.Select (_, cond, x, y) ->
        ops.(i) <- o_select;
        a.(i) <- cond;
        b.(i) <- x;
        c.(i) <- y
      | Instr.Load (_, slot, idx) ->
        check_slot slot;
        ops.(i) <- o_load;
        a.(i) <- idx;
        b.(i) <- slot
      | Instr.Store (slot, idx, v) ->
        check_slot slot;
        ops.(i) <- o_store;
        a.(i) <- idx;
        b.(i) <- v;
        c.(i) <- slot
      | Instr.Cast (cast, _, x) ->
        ops.(i) <- o_cast + Instr.cast_tag cast;
        a.(i) <- x
      | Instr.Iun (op, _, x) ->
        ops.(i) <- o_iun + Instr.iunop_tag op;
        a.(i) <- x
      | Instr.Ibin (op, _, x, y) ->
        ops.(i) <- o_ibin + Instr.ibinop_tag op;
        a.(i) <- x;
        b.(i) <- y
      | Instr.Fbin (op, _, x, y) ->
        ops.(i) <- o_fbin + Instr.fbinop_tag op;
        a.(i) <- x;
        b.(i) <- y
      | Instr.Fun1 (op, _, x) ->
        ops.(i) <- o_fun + Instr.funop_tag op;
        a.(i) <- x
      | Instr.Icmp (cmp, _, x, y) ->
        ops.(i) <- o_icmp + Instr.cmp_tag cmp;
        a.(i) <- x;
        b.(i) <- y
      | Instr.Fcmp (cmp, _, x, y) ->
        ops.(i) <- o_fcmp + Instr.cmp_tag cmp;
        a.(i) <- x;
        b.(i) <- y)
    code;
  let scalar_tys = Array.of_list (List.map snd (Kernel.scalar_params kernel)) in
  if Array.length scalar_tys > nregs then
    invalid_arg "Decode.of_kernel: scalar parameters exceed register count";
  let packed = Array.make (n * stride) 0 in
  for i = 0 to n - 1 do
    let base = i * stride in
    packed.(base) <- ops.(i);
    packed.(base + 1) <- a.(i);
    packed.(base + 2) <- b.(i);
    packed.(base + 3) <- c.(i);
    packed.(base + 4) <- dst.(i)
  done;
  { kernel; ops; dst; a; b; c; imm; srcs; packed; nregs; nbufs; scalar_tys }
