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
   range, buffer slots in range, terminator last), with {!Kernel}'s own
   checks, so a decoded kernel can be executed without per-instruction
   bounds checks on anything but data-dependent buffer indices. An
   encoding fault decodes its corrupted fields through the same tables
   and the same per-instruction check. *)

type t = {
  kernel : Kernel.t;
  imm : int64 array;  (* Iconst payload; Fconst payload as raw bits *)
  srcs : int array array;  (* source registers per static instruction *)
  packed : int array;
      (* [op; a; b; c; dst] per instruction, stride 5 — the interpreter
         reads one contiguous run per dispatch instead of touching five
         separate arrays (five cache lines) *)
  nregs : int;
}

let stride = 5

let length t = Array.length t.srcs

let nsrcs t pc = Array.length t.srcs.(pc)

let srcs_at t pc = t.srcs.(pc)

let dst_at t pc = t.packed.((pc * stride) + 4)

let noperands t pc = nsrcs t pc + if dst_at t pc >= 0 then 1 else 0

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

(* The inverses of {!Instr}'s dense sub-operation tags, in tag order;
   checked against the forward tags when the module loads. *)
let casts = [| Instr.Itof; Instr.Ftoi; Instr.Fbits; Instr.Bitsf |]
let iunops = [| Instr.Ineg; Instr.Inot |]

let ibinops =
  Instr.
    [|
      Iadd; Isub; Imul; Idiv; Irem; Iand; Ior; Ixor; Ishl; Ilshr; Iashr; Irotl; Irotr;
      Imin; Imax;
    |]

let fbinops = Instr.[| Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Fpow |]

let funops =
  Instr.[| FFneg; FFabs; FFsqrt; FFexp; FFlog; FFsin; FFcos; FFfloor; FFceil |]

let cmps = Instr.[| Ceq; Cne; Clt; Cle; Cgt; Cge |]

let () =
  let inverts tag a = Array.for_all Fun.id (Array.mapi (fun i x -> tag x = i) a) in
  assert (
    inverts Instr.cast_tag casts && inverts Instr.iunop_tag iunops
    && inverts Instr.ibinop_tag ibinops && inverts Instr.fbinop_tag fbinops
    && inverts Instr.funop_tag funops && inverts Instr.cmp_tag cmps)

let pack instr =
  let f op a b c = [| op; a; b; c; Instr.dst_index instr |] in
  match instr with
  | Instr.Halt -> f o_halt 0 0 0
  | Instr.Mov (_, s) -> f o_mov s 0 0
  | Instr.Iconst _ -> f o_iconst 0 0 0
  | Instr.Fconst _ -> f o_fconst 0 0 0
  | Instr.Jmp l -> f o_jmp l 0 0
  | Instr.Br (cond, l1, l2) -> f o_br cond l1 l2
  | Instr.Select (_, cond, x, y) -> f o_select cond x y
  | Instr.Load (_, slot, idx) -> f o_load idx slot 0
  | Instr.Store (slot, idx, v) -> f o_store idx v slot
  | Instr.Cast (cast, _, x) -> f (o_cast + Instr.cast_tag cast) x 0 0
  | Instr.Iun (op, _, x) -> f (o_iun + Instr.iunop_tag op) x 0 0
  | Instr.Ibin (op, _, x, y) -> f (o_ibin + Instr.ibinop_tag op) x y 0
  | Instr.Fbin (op, _, x, y) -> f (o_fbin + Instr.fbinop_tag op) x y 0
  | Instr.Fun1 (op, _, x) -> f (o_fun + Instr.funop_tag op) x 0 0
  | Instr.Icmp (cmp, _, x, y) -> f (o_icmp + Instr.cmp_tag cmp) x y 0
  | Instr.Fcmp (cmp, _, x, y) -> f (o_fcmp + Instr.cmp_tag cmp) x y 0

(* [pack] run backwards over the fields [p], with payload [imm]; [None]
   for an opcode outside the space. *)
let unpack p ~imm =
  let op = p.(0) and a = p.(1) and b = p.(2) and c = p.(3) and d = p.(4) in
  if op < 0 || op >= o_fcmp + Array.length cmps then None
  else if op = o_halt then Some Instr.Halt
  else if op = o_mov then Some (Instr.Mov (d, a))
  else if op = o_iconst then Some (Instr.Iconst (d, imm))
  else if op = o_fconst then Some (Instr.Fconst (d, Int64.float_of_bits imm))
  else if op = o_jmp then Some (Instr.Jmp a)
  else if op = o_br then Some (Instr.Br (a, b, c))
  else if op = o_select then Some (Instr.Select (d, a, b, c))
  else if op = o_load then Some (Instr.Load (d, b, a))
  else if op = o_store then Some (Instr.Store (c, a, b))
  else if op < o_iun then Some (Instr.Cast (casts.(op - o_cast), d, a))
  else if op < o_ibin then Some (Instr.Iun (iunops.(op - o_iun), d, a))
  else if op < o_fbin then Some (Instr.Ibin (ibinops.(op - o_ibin), d, a, b))
  else if op < o_fun then Some (Instr.Fbin (fbinops.(op - o_fbin), d, a, b))
  else if op < o_icmp then Some (Instr.Fun1 (funops.(op - o_fun), d, a))
  else if op < o_fcmp then Some (Instr.Icmp (cmps.(op - o_icmp), d, a, b))
  else Some (Instr.Fcmp (cmps.(op - o_fcmp), d, a, b))

let of_kernel (kernel : Kernel.t) =
  let fail m = invalid_arg ("Decode.of_kernel: " ^ m) in
  Option.iter (fun e -> fail e.Kernel.message) (Kernel.shape_error kernel);
  let code = kernel.Kernel.code in
  let n = Array.length code in
  let instr_error = Kernel.instr_error kernel in
  let packed = Array.make (n * stride) 0 in
  Array.iteri
    (fun i instr ->
      Option.iter fail (instr_error instr);
      Array.blit (pack instr) 0 packed (i * stride) stride)
    code;
  let imm =
    Array.map
      (function
        | Instr.Iconst (_, v) -> v
        | Instr.Fconst (_, v) -> Int64.bits_of_float v
        | _ -> 0L)
      code
  in
  let srcs = Array.map (fun instr -> Array.of_list (Instr.srcs instr)) code in
  { kernel; imm; srcs; packed; nregs = kernel.Kernel.nregs }

(* {2 Encoding faults}

   An encoding fault flips one bit of one packed field for one dynamic
   execution. Fields are addressed 8 bits apart so a site's bit index
   reads as [field * 8 + bit-in-field]; only the low [encoding_field_bits]
   bits of each field are flippable — beyond them every program in the
   suite decodes to the same trap and the sites would be pure noise. *)

let encoding_field_bits = 6

let encoding_bits =
  List.concat
    (List.init stride (fun field ->
         List.init encoding_field_bits (fun b -> (field * 8) + b)))

let corrupt t ~pc ~bit =
  let field = bit / 8 in
  if bit < 0 || field >= stride || bit land 7 >= encoding_field_bits then None
  else begin
    let p = Array.sub t.packed (pc * stride) stride in
    p.(field) <- p.(field) lxor (1 lsl (bit land 7));
    let n = length t in
    match unpack p ~imm:t.imm.(pc) with
    | Some instr
      when Kernel.instr_error t.kernel instr = None
           && (Instr.is_terminator instr || pc + 1 < n) ->
      Some instr
    | _ -> None
  end
