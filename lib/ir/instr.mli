(** Instructions of the MiniVM register IR.

    The IR is a flat register machine: an unbounded set of typed virtual
    registers per kernel, buffer parameters addressed by slot, and labels
    resolved to instruction indices. It is the level at which error sites
    are enumerated: each dynamic execution of an instruction exposes its
    source registers (flipped before the read) and its destination register
    (flipped after the write) as injection targets. *)

type reg = int
(** Virtual register index, [0 <= reg < nregs] of the enclosing kernel. *)

type label = int
(** Instruction index within the enclosing kernel's code array. *)

type buf = int
(** Buffer-parameter slot (index among the kernel's buffer parameters). *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type ibinop =
  | Iadd | Isub | Imul | Idiv | Irem
  | Iand | Ior | Ixor
  | Ishl | Ilshr | Iashr
  | Irotl | Irotr
  | Imin | Imax

type fbinop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Fpow

type iunop = Ineg | Inot

type funop = FFneg | FFabs | FFsqrt | FFexp | FFlog | FFsin | FFcos | FFfloor | FFceil

type cast =
  | Itof  (** signed int to double *)
  | Ftoi  (** double to int, truncating; traps on NaN/overflow *)
  | Fbits (** double reinterpreted as raw bits *)
  | Bitsf (** raw bits reinterpreted as double *)

type t =
  | Iconst of reg * int64
  | Mov of reg * reg                  (** dst, src: register copy of either type *)
  | Fconst of reg * float
  | Ibin of ibinop * reg * reg * reg  (** dst, lhs, rhs *)
  | Fbin of fbinop * reg * reg * reg
  | Iun of iunop * reg * reg          (** dst, src *)
  | Fun1 of funop * reg * reg
  | Icmp of cmp * reg * reg * reg     (** dst (int 0/1), lhs, rhs *)
  | Fcmp of cmp * reg * reg * reg
  | Cast of cast * reg * reg
  | Select of reg * reg * reg * reg   (** dst, cond, if-true, if-false *)
  | Load of reg * buf * reg           (** dst, buffer, index *)
  | Store of buf * reg * reg          (** buffer, index, value *)
  | Jmp of label
  | Br of reg * label * label         (** cond, if-true, if-false *)
  | Halt

val srcs : t -> reg list
(** Registers read by the instruction, in operand order. *)

val dst : t -> reg option
(** Register written by the instruction, if any. *)

val src : t -> int -> reg option
(** [src instr k] is the [k]-th source register ([List.nth_opt (srcs
    instr) k] without the list allocation); [None] when out of range. *)

val dst_index : t -> int
(** [dst] as a plain index, [-1] when the instruction writes nothing —
    the representation used by the pre-decoded instruction stream. *)

val labels : t -> label list
(** Branch targets mentioned by the instruction. *)

val is_terminator : t -> bool
(** [true] for [Jmp], [Br] and [Halt]. *)

val map_srcs : (reg -> reg) -> t -> t
(** Rewrite every source-register operand; destination registers and
    labels are untouched. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Assembly-style rendering, e.g. [r3 <- fadd r1, r2]. *)

val to_string : t -> string

val hash_fold : Ff_support.Hashing.t -> t -> unit
(** Feed the full structure of the instruction to a hash accumulator. *)

(** {2 Dense sub-operation tags}

    Stable small-int encodings of each sub-operation enum, used both by
    structural hashing and by the pre-decoded execution engine to build
    its flat opcode space. Tags are dense, starting at 0, in declaration
    order. *)

val cmp_tag : cmp -> int
val ibinop_tag : ibinop -> int
val fbinop_tag : fbinop -> int
val iunop_tag : iunop -> int
val funop_tag : funop -> int
val cast_tag : cast -> int
