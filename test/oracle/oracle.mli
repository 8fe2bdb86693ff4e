(** The tests' reference oracle.

    An independent, boxed implementation of the MiniVM's semantics — a
    tree-walking interpreter over {!Ff_ir.Value.t} — and the replays and
    golden runs built on it. The differential suites hold
    the production engine ({!Ff_vm.Unboxed}) to it bit for bit: same
    statuses, executed counts, buffer contents and traces, and the same
    replay outcomes. It shares only the vocabulary of {!Ff_vm.Machine}
    with the engine under test. *)

(** {2 The boxed interpreter} *)

val step :
  Ff_ir.Value.t array -> Ff_ir.Value.t array array -> Ff_ir.Instr.t -> pc:int -> int
(** [step regs buffers instr ~pc] executes [instr], the instruction at
    static [pc], uncorrupted, over the register file [regs] and the
    buffers bound to the kernel's slots, and returns the next pc, or
    [-1] for [Halt]. Raises {!Ff_vm.Machine.Trap} on an out-of-range
    buffer index, a division by zero, an invalid conversion or a
    wrongly-typed operand. *)

val exec :
  Ff_ir.Kernel.t ->
  scalars:Ff_ir.Value.t list ->
  buffers:Ff_ir.Value.t array array ->
  budget:int ->
  ?decoded:Ff_vm.Decode.t ->
  ?injection:Ff_vm.Machine.injection ->
  ?burst:int ->
  ?trace:Ff_vm.Trace.t ->
  unit ->
  Ff_vm.Machine.run
(** [exec kernel ~scalars ~buffers ~budget ()] runs the kernel to
    completion, trap, or budget exhaustion. [buffers.(slot)] is the
    storage bound to the kernel's slot-th buffer parameter, mutated in
    place (slots given one array alias). [scalars] are preloaded into
    registers 0... With [trace], every executed static instruction index
    is appended to it. [decoded], the decoding of this very kernel, is
    required for an [Oenc] injection. Raises [Invalid_argument
    "Oracle.exec: ..."] if the scalars or the buffer arity do not match
    the kernel's signature. *)

(** {2 Replays} *)

val buffer_distance :
  ?stop_at:float -> Ff_ir.Value.t array -> Ff_ir.Value.t array -> float
(** [buffer_distance golden actual] is the largest element-wise |Δ|
    between the two buffers under {!Ff_ir.Value.abs_diff}: the boxed
    reference that {!Ff_vm.Ustate.buffer_distance} is held to. With
    [stop_at], the scan stops as soon as the running worst exceeds it;
    the early-exited value is only guaranteed to be on the same side of
    [stop_at] as the true maximum. *)

val golden_state : Ff_vm.Golden.t -> int -> Ff_ir.Value.t array array
(** Boundary state [k] of a golden run under test
    ({!Ff_vm.Golden.state}), boxed. Boxed once per golden run (with its
    scalar arguments, for {!Engine}) and shared: callers must not
    mutate it. *)

module Engine : Ff_vm.Replay.ENGINE with type t = Ff_ir.Value.t array array
(** The interpreter over a fresh boxed copy of the program state. *)

include Ff_vm.Replay.S
(** {!Ff_vm.Replay}'s driver over {!Engine}: the same drivers the
    production replays run, over the oracle's interpreter. *)

(** {2 Whole-program runs} *)

type golden_section = {
  trace : int array;  (** dynamic instruction stream *)
  dyn_count : int;
  entry_state : Ff_ir.Value.t array array;  (** every buffer at entry *)
  input_hash : int64;
  (** {!Ff_ir.Value.hash_fold} of the scalar arguments, then of each
      readable bound buffer's index and entry contents *)
}

type golden = {
  program : Ff_ir.Program.t;
  sections : golden_section array;
  final_state : Ff_ir.Value.t array array;
  total_dyn : int;
}

val golden_run : ?budget_per_section:int -> Ff_ir.Program.t -> golden
(** The golden run as the boxed interpreter computes it, over one boxed
    program state (slots bound to one buffer alias): trace, dynamic
    counts, every entry state, the final state and the input hashes,
    for comparison with {!Ff_vm.Golden.run}. Raises [Failure] if a
    section does not finish. *)

val outputs : golden -> (int * string * Ff_ir.Value.t array) list
(** Final program outputs, as {!Ff_vm.Golden.outputs}. *)

(** {2 The unboxed engine over boxed buffers} *)

val exec_values :
  Ff_vm.Decode.t ->
  scalars:Ff_ir.Value.t list ->
  buffers:Ff_ir.Value.t array array ->
  budget:int ->
  ?injection:Ff_vm.Machine.injection ->
  ?burst:int ->
  ?trace:Ff_vm.Trace.t ->
  unit ->
  Ff_vm.Machine.run
(** {!Ff_vm.Unboxed.exec} with {!exec}'s contract: converts the boxed
    buffers to unboxed mirrors — one per physically distinct array, so
    aliased slots stay aliased — runs, and writes the results back. The
    differential tests run the engine under test through it. *)
