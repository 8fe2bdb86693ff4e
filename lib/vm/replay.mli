(** Injected re-executions against a golden run.

    Two replay modes mirror the two analyses of the paper:
    {ul
    {- {!run_section}: FastFlip's per-section injection — execute only the
       injected section from its golden entry state and compare its outputs
       against the golden exit state (the per-section outcome O_s(j)).}
    {- {!run_to_end}: the monolithic Approxilyzer-style baseline — execute
       from the injected section's entry state through the rest of the
       schedule and compare the final program outputs.}}

    Each mode is one driver ({!Driver}), written once over a small
    per-engine state interface ({!ENGINE}: enter a section, apply a
    memory flip, execute a section, compare with a golden boundary
    state), so anomaly mapping, distances, the side-effect scan, the
    non-finite check and convergence are shared. The functions below
    are the driver over the {!Unboxed} engine in this domain's
    {!Workspace}; the test suite's boxed oracle instantiates the same
    driver over its own interpreter. Both modes charge their work
    (dynamic instructions executed) to the caller, which is how
    analysis "core-hours" are accounted. Every other single-section run
    goes through {!exec_section}, from the same workspace. *)

type anomaly =
  | Trap of Machine.trap
  | Timeout

type mem_flip = {
  mf_buffer : int;  (** program buffer index *)
  mf_elem : int;    (** element within the buffer *)
  mf_bits : int list;  (** payload bits to XOR, each taken mod 64 *)
}

type injection =
  | Fault of Machine.injection
      (** an in-flight fault on one dynamic instruction (register flip,
          skip, or encoding corruption — see {!Machine.operand}) *)
  | Mem_flip of mem_flip
      (** flip bits of one buffer element in the entry state, before the
          engine starts: the memory-fault-at-section-boundary model. The
          flip preserves the element's type tag; out-of-range coordinates
          are a no-op on every engine. *)

val budget_of : timeout_factor:float -> int -> int
(** The dynamic-instruction budget a replay grants a section whose golden
    run executed [dyn_count] instructions: [timeout_factor ×] that count
    (floor 16). Exposed so the static outcome prover reasons about the
    exact budget the replay it stands in for would have used. *)

val exec_section :
  ?burst:int ->
  ?injection:injection ->
  Golden.t -> Golden.section_run -> edit:(Ustate.t -> unit) -> timeout_factor:float ->
  Workspace.t * Machine.run
(** The single-section run of sensitivity sampling, detector synthesis
    and detector coverage. Resets this domain's {!Workspace} to the section's golden
    entry, applies a [Mem_flip] [injection] to that state, then [edit]
    (a benign perturbation, a read of the faulty entry, or nothing),
    then runs the section on the {!Unboxed} engine with a [Fault]
    [injection] under [timeout_factor ×] its golden budget
    ({!budget_of}). Returns the workspace, whose [state] holds the
    section's exit (compare it against [Golden.state golden (i + 1)]);
    it is valid only until the next run on this domain. Only the section's
    bound buffers are reset, and only they can affect the run. *)

type section_replay = {
  s_anomaly : anomaly option;
  s_output_sdc : (int * float) array;
  (** per writable buffer slot of the section: (slot, max |Δ| vs the
      golden exit state); meaningless when [s_anomaly] is set *)
  s_side_effect : bool;
  (** a buffer outside the section's writable slots changed — checked for
      conformance with paper §4.9; structurally impossible in MiniVM *)
  s_nonfinite : bool;
  (** a non-finite float appeared in a writable slot: a detectable,
      misformatted output *)
  s_executed : int;
}

type program_replay = {
  p_anomaly : anomaly option;
  p_final_sdc : (int * float) list;
  (** per final output buffer index: max |Δ| vs the golden final state *)
  p_nonfinite : bool;
  p_executed : int;
}

(** What a replay needs of an execution engine. [k] names golden
    boundary state [k] of the golden run ({!Golden.state}): the entry of
    section [k], or the final state when [k] is the section count. *)
module type ENGINE = sig
  type t

  val enter : Golden.t -> int -> whole:bool -> t
  (** a state at section [i]'s golden entry: the whole program state, or
      only section [i]'s bound buffers, the only ones a section replay
      reads or inspects *)

  val mem_flip : t -> mem_flip -> unit
  (** XOR the payload bits of one element, keeping its type tag — the
      engines agree bit for bit; out-of-range coordinates are a no-op, so
      a stale site enumeration can never crash a campaign *)

  val exec :
    Golden.t -> t -> int -> injection:Machine.injection option -> burst:int ->
    budget:int -> Machine.run
  (** run section [i] on the state under [budget] *)

  val distance : Golden.t -> int -> t -> int -> float
  (** the largest element-wise |Δ| of buffer [idx] from golden boundary
      state [k] ({!Ustate.buffer_distance}) *)

  val differs : Golden.t -> int -> t -> int -> bool
  (** whether buffer [idx] differs from golden boundary state [k] *)

  val nonfinite : t -> int -> bool
  (** whether buffer [idx] holds a non-finite float *)

  val equal : Golden.t -> int -> t -> bool
  (** whether the whole state equals golden boundary state [k] *)
end

module type S = sig
  val run_section :
    ?burst:int ->
    Golden.t -> Golden.section_run -> injection -> timeout_factor:float ->
    section_replay
  (** Replay one section in isolation with an injected fault. [burst] only
      affects [Fault] register-flip operands. The section
      budget is [timeout_factor] × its golden dynamic instruction count
      (the paper uses 5×). Over {!Unboxed} the replay runs in this
      domain's reusable workspace — per-replay setup is a blit of the
      entry state, not an allocation. *)

  val run_to_end :
    ?burst:int ->
    Golden.t -> from_section:int -> injection -> timeout_factor:float ->
    program_replay
  (** Replay the program from the entry of section [from_section] (injecting
      there) through the end of the schedule. Each section gets
      [timeout_factor] × its own golden budget. Mirrors Approxilyzer's
      early equivalence detection: if at any section boundary the faulty
      buffer state equals the golden state, the error is masked and the
      simulation stops there (charging only the work done so far).
      Raises [Invalid_argument] when [from_section] is out of range. *)
end

module Driver (E : ENGINE) : S
(** The two replay modes, written once over an engine. *)

include S
(** The driver over the {!Unboxed} engine. *)
