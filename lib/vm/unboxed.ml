(* The unboxed execution engine: one step function, [step], a single
   dense integer dispatch over a packed instruction ({!Decode.pack}),
   operating on raw 64-bit words ({!Ustate.words}, with the int64 view
   of the same memory via {!Ustate.as_bits}). Nothing in it matches a
   constructor, allocates a box, or calls a conversion stub: int operands
   are direct int64 loads from the bits view, float operands direct
   float loads from the float view, and an injected bit flip is one XOR
   on the register word. It is the one production interpreter: the
   golden run, every replay and sensitivity sample, the prover's golden
   recording and taint walk, and the optimizer's constant folding all
   execute through [step]. The test suite keeps an independent boxed
   interpreter as its oracle and holds this one to it bit for bit — same
   libm calls, same trap conditions, and [exec]'s loop order (budget
   check, trace record, source flip, dispatch, destination flip).

   [step] is [@inline]: [exec]'s interpreter loop inlines it, so the loop
   keeps one jump table over the opcode and each arm returns the next pc
   straight into the loop's pc. (Keeping the control arms in the loop
   and calling a shared function for the rest compiles to a second
   switch per instruction.) The cold callers run the out-of-line copy:
   an encoding fault runs {!Decode.corrupt}'s instruction, packed into a
   scratch, at the faulted pc; the prover's recording steps the golden
   schedule, its taint walk runs each corrupted computing instruction
   over a one-instruction scratch program on its staged words, and
   constant folding runs a packed instruction over known registers.
   Every consumer thus shares one implementation of the IR's operations.

   The arms spell out their tag checks and loads instead of sharing
   accessor functions: without flambda, a call returning [int64] boxes
   its result, and one box per operand read is exactly the cost this
   engine exists to avoid. *)

module A1 = Bigarray.Array1

(* Halt leaves the interpreter loop by exception so the loop condition
   stays a single bound compare. *)
exception Halted

let trap t = raise (Machine.Trap t)

(* Literal copies of Ustate.tag_int/tag_float: a cross-module value is
   loaded from the defining module's block on every use under the
   non-flambda backend, whereas a local char literal compares as an
   immediate. The decode/engine tests pin these to the Ustate values. *)
let tag_int = '\000'
let tag_float = '\001'

let () = assert (tag_int = Ustate.tag_int && tag_float = Ustate.tag_float)

let int64_max_float = 9.223372036854775808e18

(* The engine's one dispatch: execute the instruction packed at
   [code.(base) ..] (opcode, a, b, c, dst) as static instruction [pc]
   (whose [imm] payload it reads) over the register file
   [regs]/[iregs]/[rtags] and the bound buffers, and return the next pc.
   Halt raises [Halted]; a trap raises {!Machine.Trap}. Register indices
   were validated at decode time; only data-dependent buffer indices
   keep runtime checks. [c] is loaded lazily by the three arms that use
   it (Br, Select, Store): most dynamic instructions never need it. *)
let[@inline] step (code : int array) (imm : int64 array) (regs : Ustate.words)
    (iregs : Ustate.bits) (rtags : Bytes.t) (buffers : Ustate.words array)
    (btags : Bytes.t array) ~base ~pc =
  let op = Array.unsafe_get code base in
  let a = Array.unsafe_get code (base + 1) in
  let b = Array.unsafe_get code (base + 2) in
  let dst = Array.unsafe_get code (base + 4) in
  match op with
  | 0 (* Halt *) -> raise_notrace Halted
  | 1 (* Mov *) ->
    A1.unsafe_set iregs dst (A1.unsafe_get iregs a);
    Bytes.unsafe_set rtags dst (Bytes.unsafe_get rtags a);
    pc + 1
  | 2 (* Iconst *) ->
    A1.unsafe_set iregs dst (Array.unsafe_get imm pc);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 3 (* Fconst *) ->
    A1.unsafe_set iregs dst (Array.unsafe_get imm pc);
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 4 (* Jmp *) -> a
  | 5 (* Br *) ->
    if Bytes.unsafe_get rtags a <> tag_int then trap Machine.Type_confusion;
    if A1.unsafe_get iregs a <> 0L then b else Array.unsafe_get code (base + 3)
  | 6 (* Select *) ->
    if Bytes.unsafe_get rtags a <> tag_int then trap Machine.Type_confusion;
    let src =
      if A1.unsafe_get iregs a <> 0L then b
      else Array.unsafe_get code (base + 3)
    in
    A1.unsafe_set iregs dst (A1.unsafe_get iregs src);
    Bytes.unsafe_set rtags dst (Bytes.unsafe_get rtags src);
    pc + 1
  | 7 (* Load *) ->
    if Bytes.unsafe_get rtags a <> tag_int then trap Machine.Type_confusion;
    let idx = A1.unsafe_get iregs a in
    let store = Array.unsafe_get buffers b in
    if idx < 0L || idx >= Int64.of_int (Ustate.dim store) then
      trap Machine.Out_of_bounds;
    let j = Int64.to_int idx in
    A1.unsafe_set iregs dst (A1.unsafe_get (Ustate.as_bits store) j);
    Bytes.unsafe_set rtags dst (Bytes.unsafe_get (Array.unsafe_get btags b) j);
    pc + 1
  | 8 (* Store *) ->
    if Bytes.unsafe_get rtags a <> tag_int then trap Machine.Type_confusion;
    let idx = A1.unsafe_get iregs a in
    let c = Array.unsafe_get code (base + 3) in
    let store = Array.unsafe_get buffers c in
    if idx < 0L || idx >= Int64.of_int (Ustate.dim store) then
      trap Machine.Out_of_bounds;
    let j = Int64.to_int idx in
    A1.unsafe_set (Ustate.as_bits store) j (A1.unsafe_get iregs b);
    Bytes.unsafe_set (Array.unsafe_get btags c) j (Bytes.unsafe_get rtags b);
    pc + 1
  | 9 (* Cast Itof *) ->
    if Bytes.unsafe_get rtags a <> tag_int then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (Int64.to_float (A1.unsafe_get iregs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 10 (* Cast Ftoi *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    let x = A1.unsafe_get regs a in
    if Float.is_nan x || x >= int64_max_float || x < -.int64_max_float then
      trap Machine.Invalid_conversion;
    A1.unsafe_set iregs dst (Int64.of_float x);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 11 (* Cast Fbits: the word is already the bits — retag *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst (A1.unsafe_get iregs a);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 12 (* Cast Bitsf: pure reinterpretation — retag *) ->
    if Bytes.unsafe_get rtags a <> tag_int then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst (A1.unsafe_get iregs a);
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 13 (* Ineg *) ->
    if Bytes.unsafe_get rtags a <> tag_int then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst (Int64.neg (A1.unsafe_get iregs a));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 14 (* Inot *) ->
    if Bytes.unsafe_get rtags a <> tag_int then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst (Int64.lognot (A1.unsafe_get iregs a));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 15 (* Iadd *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (Int64.add (A1.unsafe_get iregs a) (A1.unsafe_get iregs b));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 16 (* Isub *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (Int64.sub (A1.unsafe_get iregs a) (A1.unsafe_get iregs b));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 17 (* Imul *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (Int64.mul (A1.unsafe_get iregs a) (A1.unsafe_get iregs b));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 18 (* Idiv *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    let y = A1.unsafe_get iregs b in
    if y = 0L then trap Machine.Div_by_zero;
    A1.unsafe_set iregs dst (Int64.div (A1.unsafe_get iregs a) y);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 19 (* Irem *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    let y = A1.unsafe_get iregs b in
    if y = 0L then trap Machine.Div_by_zero;
    A1.unsafe_set iregs dst (Int64.rem (A1.unsafe_get iregs a) y);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 20 (* Iand *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (Int64.logand (A1.unsafe_get iregs a) (A1.unsafe_get iregs b));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 21 (* Ior *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (Int64.logor (A1.unsafe_get iregs a) (A1.unsafe_get iregs b));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 22 (* Ixor *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (Int64.logxor (A1.unsafe_get iregs a) (A1.unsafe_get iregs b));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 23 (* Ishl *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (Int64.shift_left (A1.unsafe_get iregs a)
         (Int64.to_int (A1.unsafe_get iregs b) land 63));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 24 (* Ilshr *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (Int64.shift_right_logical (A1.unsafe_get iregs a)
         (Int64.to_int (A1.unsafe_get iregs b) land 63));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 25 (* Iashr *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (Int64.shift_right (A1.unsafe_get iregs a)
         (Int64.to_int (A1.unsafe_get iregs b) land 63));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 26 (* Irotl *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    let x = A1.unsafe_get iregs a in
    let s = Int64.to_int (A1.unsafe_get iregs b) land 63 in
    A1.unsafe_set iregs dst
      (if s = 0 then x
       else
         Int64.logor (Int64.shift_left x s)
           (Int64.shift_right_logical x (64 - s)));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 27 (* Irotr *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    let x = A1.unsafe_get iregs a in
    let s = Int64.to_int (A1.unsafe_get iregs b) land 63 in
    A1.unsafe_set iregs dst
      (if s = 0 then x
       else
         Int64.logor
           (Int64.shift_right_logical x s)
           (Int64.shift_left x (64 - s)));
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 28 (* Imin *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    let x = A1.unsafe_get iregs a in
    let y = A1.unsafe_get iregs b in
    A1.unsafe_set iregs dst (if x <= y then x else y);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 29 (* Imax *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    let x = A1.unsafe_get iregs a in
    let y = A1.unsafe_get iregs b in
    A1.unsafe_set iregs dst (if x >= y then x else y);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 30 (* Fadd *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (A1.unsafe_get regs a +. A1.unsafe_get regs b);
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 31 (* Fsub *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (A1.unsafe_get regs a -. A1.unsafe_get regs b);
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 32 (* Fmul *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (A1.unsafe_get regs a *. A1.unsafe_get regs b);
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 33 (* Fdiv *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (A1.unsafe_get regs a /. A1.unsafe_get regs b);
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 34 (* Fmin *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set regs dst
      (Float.min (A1.unsafe_get regs a) (A1.unsafe_get regs b));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 35 (* Fmax *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set regs dst
      (Float.max (A1.unsafe_get regs a) (A1.unsafe_get regs b));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 36 (* Fpow *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set regs dst
      (Float.pow (A1.unsafe_get regs a) (A1.unsafe_get regs b));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 37 (* FFneg *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (-.(A1.unsafe_get regs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 38 (* FFabs *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (Float.abs (A1.unsafe_get regs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 39 (* FFsqrt *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (sqrt (A1.unsafe_get regs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 40 (* FFexp *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (exp (A1.unsafe_get regs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 41 (* FFlog *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (log (A1.unsafe_get regs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 42 (* FFsin *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (sin (A1.unsafe_get regs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 43 (* FFcos *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (cos (A1.unsafe_get regs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 44 (* FFfloor *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (Float.floor (A1.unsafe_get regs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 45 (* FFceil *) ->
    if Bytes.unsafe_get rtags a <> tag_float then trap Machine.Type_confusion;
    A1.unsafe_set regs dst (Float.ceil (A1.unsafe_get regs a));
    Bytes.unsafe_set rtags dst tag_float;
    pc + 1
  | 46 (* Icmp Ceq *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get iregs a = A1.unsafe_get iregs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 47 (* Icmp Cne *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get iregs a <> A1.unsafe_get iregs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 48 (* Icmp Clt *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get iregs a < A1.unsafe_get iregs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 49 (* Icmp Cle *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get iregs a <= A1.unsafe_get iregs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 50 (* Icmp Cgt *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get iregs a > A1.unsafe_get iregs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 51 (* Icmp Cge *) ->
    if Bytes.unsafe_get rtags a <> tag_int || Bytes.unsafe_get rtags b <> tag_int
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get iregs a >= A1.unsafe_get iregs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 52 (* Fcmp Ceq *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get regs a = A1.unsafe_get regs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 53 (* Fcmp Cne *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get regs a <> A1.unsafe_get regs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 54 (* Fcmp Clt *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get regs a < A1.unsafe_get regs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 55 (* Fcmp Cle *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get regs a <= A1.unsafe_get regs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | 56 (* Fcmp Cgt *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get regs a > A1.unsafe_get regs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1
  | _ (* 57, Fcmp Cge *) ->
    if
      Bytes.unsafe_get rtags a <> tag_float
      || Bytes.unsafe_get rtags b <> tag_float
    then trap Machine.Type_confusion;
    A1.unsafe_set iregs dst
      (if A1.unsafe_get regs a >= A1.unsafe_get regs b then 1L else 0L);
    Bytes.unsafe_set rtags dst tag_int;
    pc + 1


let exec (d : Decode.t) ~(regs : Ustate.words) ~(rtags : Bytes.t)
    ~(scal_words : Ustate.words) ~(scal_tags : Bytes.t)
    ~(buffers : Ustate.words array) ~(btags : Bytes.t array) ~budget ?injection
    ?(burst = 1) ?trace () =
  let iregs = Ustate.as_bits regs in
  let nregs = d.Decode.nregs in
  (* Reset the (possibly oversized, reused) register file: all-int-zero,
     then stage the scalar arguments into registers 0.. *)
  for i = 0 to nregs - 1 do
    A1.unsafe_set iregs i 0L;
    Bytes.unsafe_set rtags i tag_int
  done;
  let nscal = Ustate.dim scal_words in
  let iscal = Ustate.as_bits scal_words in
  for i = 0 to nscal - 1 do
    A1.unsafe_set iregs i (A1.unsafe_get iscal i)
  done;
  Bytes.blit scal_tags 0 rtags 0 nscal;
  let code = d.Decode.packed and imm = d.Decode.imm in
  let executed = ref 0 in
  let inj_dyn, inj_src, inj_bit =
    (* [inj_src] is the source index for Osrc, or a negative sentinel:
       -1 Odst, -2 Oskip, -3 Oenc. A dynamic index that can never be
       reached (no injection, or a negative [at_dyn]) becomes [max_int]
       so the segment driver below runs one uninterrupted stretch. *)
    match injection with
    | Some { Machine.at_dyn; operand; bit } -> (
      let at_dyn = if at_dyn < 0 then max_int else at_dyn in
      match operand with
      | Machine.Osrc k -> (at_dyn, k, bit)
      | Machine.Odst -> (at_dyn, -1, bit)
      | Machine.Oskip -> (at_dyn, -2, bit)
      | Machine.Oenc -> (at_dyn, -3, bit))
    | None -> (max_int, -1, 0)
  in
  (* Iterative per-bit flips XOR the word once per listed bit, so a
     duplicate bit (burst > 64 wraps) cancels — folding the whole burst
     into one mask reproduces that exactly. *)
  let flip_mask =
    List.fold_left
      (fun m b -> Int64.logxor m (Int64.shift_left 1L b))
      0L
      (Machine.burst_bits ~bit:inj_bit ~burst)
  in
  let flip_reg r =
    A1.unsafe_set iregs r (Int64.logxor (A1.unsafe_get iregs r) flip_mask)
  in
  let pc = ref 0 in
  (* The interpreter loop carries no injection logic at all: the driver
     below runs it in segments — up to the injection's dynamic index,
     then the one injected instruction bracketed by the source flip and
     the destination flip, then on to the budget. The hot path pays one
     bound compare per instruction and nothing else. The hot free
     variables are rebound as locals once per segment, through
     [Sys.opaque_identity]: a plain [let code = code] is an alias the
     non-flambda compiler substitutes back into its uses, and the inlined
     [step] then binds its arguments afresh per instruction, copying
     every closure-environment field to the stack on each dispatch. *)
  let run_until stop =
    let code = Sys.opaque_identity code
    and imm = Sys.opaque_identity imm
    and iregs = Sys.opaque_identity iregs
    and regs = Sys.opaque_identity regs
    and rtags = Sys.opaque_identity rtags
    and buffers = Sys.opaque_identity buffers
    and btags = Sys.opaque_identity btags in
    (* [e]/[p] are non-escaping local refs, which the compiler's
       reference elimination turns into mutable stack slots — the loop
       counter and program counter live in registers, not the heap. Both
       are written back on every exit, including trap and halt, so the
       caller-visible refs always hold the exact dynamic count. *)
    let e = ref !executed and p = ref !pc in
    (try
       while !e < stop do
         let i = !p in
         (match trace with Some t -> Trace.add t i | None -> ());
         incr e;
         p := step code imm regs iregs rtags buffers btags ~base:(i * 5) ~pc:i
       done
     with ex ->
       executed := !e;
       pc := !p;
       raise ex);
    executed := !e;
    pc := !p
  in
  let result =
    try
      run_until (min budget inj_dyn);
      if !executed >= budget then Machine.Out_of_budget
      else begin
        (* [!executed = inj_dyn < budget]: the next dynamic instruction
           is the injected one. *)
        let ip = !pc in
        if inj_src = -2 then begin
          (* Skip: the faulted instruction records in the trace and
             counts against the budget — exactly as on the boxed engine —
             but control falls straight through, and running off the end
             of the kernel is a defined trap. *)
          (match trace with Some t -> Trace.add t ip | None -> ());
          executed := !executed + 1;
          let nx = ip + 1 in
          if nx >= Decode.length d then trap Machine.Type_confusion;
          pc := nx
        end
        else if inj_src = -3 then begin
          (* Encoding corruption: the instruction the corrupted encoding
             decodes to, packed into a scratch and run by [step] at the
             faulted pc; an illegal encoding traps before any effect. Cold
             path by construction, once per replay. *)
          (match trace with Some t -> Trace.add t ip | None -> ());
          executed := !executed + 1;
          match Decode.corrupt d ~pc:ip ~bit:inj_bit with
          | None -> trap Machine.Type_confusion
          | Some instr ->
            pc :=
              (step [@inlined never]) (Decode.pack instr) imm regs iregs rtags buffers
                btags ~base:0 ~pc:ip
        end
        else begin
          (* Register flip: the source register before the step, or the
             destination register after it (reading [dst] straight from
             the decoded stream; -1 means the instruction writes no
             register — same no-op as the boxed engine). *)
          if inj_src >= 0 then begin
            let ss = Array.unsafe_get d.Decode.srcs ip in
            if inj_src < Array.length ss then flip_reg (Array.unsafe_get ss inj_src)
          end;
          run_until (!executed + 1);
          if inj_src < 0 then begin
            let dst = Decode.dst_at d ip in
            if dst >= 0 then flip_reg dst
          end
        end;
        run_until budget;
        Machine.Out_of_budget
      end
    with
    | Halted -> Machine.Finished
    | Machine.Trap t -> Machine.Trapped t
  in
  Machine.telemetry_record result ~executed:!executed;
  { Machine.status = result; executed = !executed }
