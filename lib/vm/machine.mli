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
  | Oenc         (** one bit ([injection.bit], see
                     {!Decode.encoding_bits}) of the packed encoding is
                     XORed for this one execution; {!Decode.corrupt}
                     re-validates the corrupted tuple, so an illegal
                     encoding traps [Type_confusion] instead of being
                     UB. Requires [exec]'s [?decoded]. *)

type injection = {
  at_dyn : int;   (** dynamic instruction index within this section run *)
  operand : operand;
  bit : int;      (** 0..63 *)
}

(** {2 The boxed step}

    The boxed copy of the IR's semantics: {!step} runs a whole
    instruction. [exec] (corrupted instructions from {!Decode.corrupt}
    included), the prover's golden recording and the optimizer's
    constant folding all call it, so each computes exactly what a replay
    computes, trap conditions included. The unboxed engine has one step
    of its own ({!Unboxed.step}), which the prover's taint walk also
    runs; the differential engine tests and test_prover "evaluation"
    hold it to this one. Both raise {!Trap} on the conditions [exec]
    turns into a [Trapped] status. *)

exception Trap of trap

val step :
  Ff_ir.Value.t array -> Ff_ir.Value.t array array -> Ff_ir.Instr.t -> pc:int -> int
(** [step regs buffers instr ~pc] executes [instr], the instruction at
    static [pc], uncorrupted: it reads and writes the register file
    [regs] and the buffers bound to the kernel's slots, and returns the
    next pc, or [-1] for [Halt]. A buffer index outside [[0, size)]
    raises [Trap Out_of_bounds]; an operation traps [Div_by_zero],
    [Invalid_conversion] (float-to-int of NaN or an out-of-range value)
    or [Type_confusion] (a wrongly-typed operand). [buffers] is only
    read by [Load] and [Store], so a caller stepping compute ops alone
    may pass [[||]]. *)

val burst_bits : bit:int -> burst:int -> int list
(** The bits a burst of width [burst] starting at [bit] flips:
    [bit, bit+1, ...] wrapping modulo 64. Width 1 is the paper's
    single-event-upset model; larger widths model multi-bit upsets
    (§4.8 supports them within a single section). *)

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
