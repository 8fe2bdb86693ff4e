(** One-time pre-decoding of a kernel into a flat, int-coded form.

    The boxed interpreter ({!Machine}) re-discovers everything about an
    instruction — constructor, sub-operation, operand registers — on
    every dynamic execution. A campaign replays the same kernel thousands
    of times, so this module pays that discovery cost once: the code
    array is compiled into parallel int arrays (opcode, destination, up
    to three operands, immediate payload) plus per-instruction source
    register arrays for the injection engine's operand addressing.

    The opcode space is fully flattened — each (constructor,
    sub-operation) pair has a distinct code — so the unboxed machine's
    hot loop is a single dense integer dispatch with no constructor
    matching at all. Registers, labels and buffer slots are validated at
    decode time, licensing unchecked register-file access during
    execution (only data-dependent buffer indices keep runtime checks). *)

type t = private {
  kernel : Ff_ir.Kernel.t;
  ops : int array;           (** flattened opcode per static instruction *)
  dst : int array;           (** destination register, [-1] when none *)
  a : int array;             (** first operand register / label *)
  b : int array;             (** second operand register / label / slot *)
  c : int array;             (** third operand register / label / slot *)
  imm : int64 array;         (** constant payload (floats as raw bits) *)
  srcs : int array array;    (** source registers per static instruction *)
  packed : int array;
      (** [[op; a; b; c; dst]] per instruction, stride 5 — one
          contiguous run per dispatch for the unboxed machine's hot loop *)
  nregs : int;
  nbufs : int;
  scalar_tys : Ff_ir.Value.scalar_ty array;
}

val of_kernel : Ff_ir.Kernel.t -> t
(** Decode a kernel. Raises [Invalid_argument] when the kernel violates
    the static properties {!Ff_ir.Kernel.validate} guarantees (empty
    code, register/label/slot out of range, missing terminator). *)

val length : t -> int
(** Number of static instructions. *)

val nsrcs : t -> int -> int
(** Source-operand count of the instruction at the given static index. *)

val srcs_at : t -> int -> int array
(** Source registers of the instruction at the given static index. Do
    not mutate. *)

val dst_at : t -> int -> int
(** Destination register at the given static index, [-1] when none. *)

val noperands : t -> int -> int
(** Injectable operand count (sources plus destination if present) —
    the site-enumeration quantity, computed without allocation. *)

(** {2 Opcode space}

    Base codes of each opcode group; group members are [base + tag] with
    the dense tags of {!Ff_ir.Instr}. Exposed so the unboxed machine and
    tests can cross-check the layout. *)

val o_halt : int
val o_mov : int
val o_iconst : int
val o_fconst : int
val o_jmp : int
val o_br : int
val o_select : int
val o_load : int
val o_store : int
val o_cast : int
val o_iun : int
val o_ibin : int
val o_fbin : int
val o_fun : int
val o_icmp : int
val o_fcmp : int
