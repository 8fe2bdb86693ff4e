(** The MiniVM interpreter for a single kernel call (one program section).

    The interpreter executes a validated kernel over mutable buffer
    storage, optionally flipping one bit of one register operand of one
    dynamic instruction — the single-event-upset error model of the paper.
    Faulty executions may take control paths the typechecker never saw, so
    the interpreter turns every anomaly (bounds violations, division by
    zero, invalid conversions, type confusion from wrongly-routed control
    flow) into a {!trap} instead of an OCaml exception. *)

type trap =
  | Out_of_bounds       (** buffer access outside [0, size) *)
  | Div_by_zero
  | Invalid_conversion  (** float-to-int of NaN or out-of-range value *)
  | Type_confusion      (** an operand had the wrong dynamic type; only
                            reachable when an injection corrupts control
                            flow into code whose registers were never
                            initialized on this path *)

type status =
  | Finished
  | Trapped of trap
  | Out_of_budget  (** instruction budget exhausted: the timeout outcome *)

type run = {
  status : status;
  executed : int;  (** dynamic instructions executed *)
}

type operand =
  | Osrc of int  (** i-th source register of the instruction, flipped
                     just before the instruction reads it; the corruption
                     persists in the register *)
  | Odst         (** destination register, flipped just after the write *)
  | Oskip        (** the instruction is fetched (it records in the trace
                     and counts against the budget) but not executed;
                     control falls through to [pc + 1], and falling off
                     the end of the kernel traps [Type_confusion] *)
  | Oenc         (** one bit ([injection.bit], see {!encoding_bits}) of the
                     packed encoding is XORed for this one execution; the
                     corrupted tuple is re-validated against the decode
                     tables, so illegal encodings trap [Type_confusion]
                     instead of being UB. Requires [exec]'s [?decoded]. *)

type injection = {
  at_dyn : int;   (** dynamic instruction index within this section run *)
  operand : operand;
  bit : int;      (** 0..63 *)
}

(** {2 Shared evaluation semantics}

    The one copy of the IR's semantics outside the unboxed engine:
    {!step} runs a whole instruction and the per-operation evaluators
    below run one operation. [exec], the prover's golden recording and
    the optimizer's constant folding all call {!step}; the prover's taint
    walk calls the evaluators. Every caller therefore computes exactly
    what a replay computes, trap conditions included. Both raise {!Trap}
    on the same conditions [exec] turns into a [Trapped] status. *)

exception Trap of trap

val step :
  Ff_ir.Value.t array -> Ff_ir.Value.t array array -> Ff_ir.Instr.t -> pc:int -> int
(** [step regs buffers instr ~pc] executes [instr], the instruction at
    static [pc], uncorrupted: it reads and writes the register file
    [regs] and the buffers bound to the kernel's slots, and returns the
    next pc, or [-1] for [Halt]. A buffer index outside [[0, size)]
    raises [Trap Out_of_bounds]; the operation traps of the evaluators
    below propagate unchanged. [buffers] is only read by [Load] and
    [Store], so a caller stepping compute ops alone may pass [[||]]. *)

val as_int : Ff_ir.Value.t -> int64
(** Raises [Trap Type_confusion] on a float. *)

val as_float : Ff_ir.Value.t -> float
(** Raises [Trap Type_confusion] on an integer. *)

val eval_ibin : Ff_ir.Instr.ibinop -> int64 -> int64 -> int64
(** Raises [Trap Div_by_zero] exactly when [exec] would. *)

val eval_fbin : Ff_ir.Instr.fbinop -> float -> float -> float

val eval_iun : Ff_ir.Instr.iunop -> int64 -> int64

val eval_funop : Ff_ir.Instr.funop -> float -> float

val eval_icmp : Ff_ir.Instr.cmp -> int64 -> int64 -> bool

val eval_fcmp : Ff_ir.Instr.cmp -> float -> float -> bool

val eval_cast : Ff_ir.Instr.cast -> Ff_ir.Value.t -> Ff_ir.Value.t
(** Raises [Trap Invalid_conversion] on float-to-int of NaN or
    out-of-range values, [Trap Type_confusion] on a wrongly-typed
    operand — the same guards as [exec]. *)

val burst_bits : bit:int -> burst:int -> int list
(** The bits a burst of width [burst] starting at [bit] flips:
    [bit, bit+1, ...] wrapping modulo 64. Width 1 is the paper's
    single-event-upset model; larger widths model multi-bit upsets
    (§4.8 supports them within a single section). *)

val encoding_bits : int list
(** The bit indices an [Oenc] injection may target: bit [field * 8 + b]
    flips bit [b] of packed field [field] (0 opcode, 1 a, 2 b, 3 c,
    4 dst), for [b < 6]. *)

type step_env = {
  se_read : int -> Ff_ir.Value.t;
  se_write : int -> Ff_ir.Value.t -> unit;
  se_load : int -> int64 -> Ff_ir.Value.t;  (** slot, index *)
  se_store : int -> int64 -> Ff_ir.Value.t -> unit;
}
(** State accessors handed to {!exec_corrupt_step} so both engines run the
    one shared corrupted-instruction dispatch over their own register and
    buffer representations — this sharing is what makes the [Oenc] model
    bit-identical across engines by construction. Accessors raise {!Trap}
    for out-of-range buffer indices; register indices are validated by the
    step itself before any access. *)

val exec_corrupt_step : Decode.t -> pc:int -> bit:int -> step_env -> int
(** Execute the instruction at static [pc] with [bit] XORed into its
    packed encoding, re-validated against the decode tables. Returns the
    next pc, or [-1] for halt; raises {!Trap} ([Type_confusion] for every
    illegal corrupted encoding, plus whatever the executed instruction
    itself traps). *)

val exec :
  Ff_ir.Kernel.t ->
  scalars:Ff_ir.Value.t list ->
  buffers:Ff_ir.Value.t array array ->
  budget:int ->
  ?decoded:Decode.t ->
  ?injection:injection ->
  ?burst:int ->
  ?trace:Trace.t ->
  unit ->
  run
(** [exec kernel ~scalars ~buffers ~budget ()] runs the kernel to
    completion, trap, or budget exhaustion. [buffers.(slot)] is the storage
    bound to the kernel's slot-th buffer parameter and is mutated in place.
    [scalars] are preloaded into registers 0.. in declaration order.
    If [trace] is given, every executed static instruction index is
    appended to it. [decoded] must be the decoding of this very kernel
    when given; it lets injected replays address the flipped operand
    through the decode-time operand tables instead of allocating an
    operand list, and it is required for an [Oenc] injection. Raises
    [Invalid_argument] if the scalar count does not match the kernel
    signature or the buffer array has the wrong arity. *)

val telemetry_record : status -> executed:int -> unit
(** Bump the per-exec VM telemetry (execs, instructions, trap kinds) for
    one finished run — shared by every execution engine so the
    [vm.instructions]/[vm.trap.*] counters mean the same thing on the
    boxed and unboxed paths. *)

val pp_trap : Format.formatter -> trap -> unit

val pp_status : Format.formatter -> status -> unit
