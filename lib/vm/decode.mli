(** One-time pre-decoding of a kernel into a flat, int-coded form.

    Executing a {!Ff_ir.Instr.t} directly would re-discover everything
    about an instruction — constructor, sub-operation, operand registers —
    on every dynamic execution. A campaign replays the same kernel
    thousands of times, so this module pays that discovery cost once: the code
    array is compiled into one packed int array (opcode, up to three
    operands, destination per instruction) and an immediate-payload
    array, plus per-instruction source register arrays for the injection
    engine's operand addressing.

    The opcode space is fully flattened — each (constructor,
    sub-operation) pair has a distinct code — so the unboxed machine's
    hot loop is a single dense integer dispatch with no constructor
    matching at all. Registers, labels and buffer slots are validated at
    decode time, licensing unchecked register-file access during
    execution (only data-dependent buffer indices keep runtime checks).
    An encoding fault ({!corrupt}) decodes its corrupted fields through
    the same tables and checks. *)

type t = private {
  kernel : Ff_ir.Kernel.t;
  imm : int64 array;         (** constant payload (floats as raw bits) *)
  srcs : int array array;    (** source registers per static instruction *)
  packed : int array;
      (** [[op; a; b; c; dst]] per instruction, stride 5, [dst = -1] when
          the instruction writes no register — one contiguous run per
          dispatch for the unboxed machine's hot loop *)
  nregs : int;
}

val of_kernel : Ff_ir.Kernel.t -> t
(** Decode a kernel. Raises [Invalid_argument "Decode.of_kernel: m"] on
    the first message [m] of {!Ff_ir.Kernel.shape_error}, then of
    {!Ff_ir.Kernel.instr_error} over the code. *)

val pack : Ff_ir.Instr.t -> int array
(** The five packed fields [[op; a; b; c; dst]] of one instruction, as
    {!of_kernel} lays them out in [packed]. *)

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

(** {2 Encoding faults} *)

val encoding_bits : int list
(** The bit indices an encoding fault may target: bit [field * 8 + b]
    flips bit [b] of packed field [field] (0 opcode, 1 a, 2 b, 3 c,
    4 dst), for [b < 6]. *)

val corrupt : t -> pc:int -> bit:int -> Ff_ir.Instr.t option
(** [corrupt d ~pc ~bit] is the instruction the encoding at static [pc]
    decodes to with [bit] flipped, re-validated as {!of_kernel}
    validates an instruction: [None] for a bit outside {!encoding_bits},
    an opcode outside the space, an {!Ff_ir.Kernel.instr_error}, or a
    non-terminator at the last pc (it would fall off the end). An engine
    traps [Type_confusion] on [None], before any effect, and otherwise
    executes the result with its own step at [pc] (a corrupted [Iconst]
    or [Fconst] reads the payload [imm.(pc)]). *)
