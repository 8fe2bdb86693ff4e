(** Injected re-executions against a golden run.

    Two replay modes mirror the two analyses of the paper:
    {ul
    {- {!run_section}: FastFlip's per-section injection — execute only the
       injected section from its golden entry state and compare its outputs
       against the golden exit state (the per-section outcome O_s(j)).}
    {- {!run_to_end}: the monolithic Approxilyzer-style baseline — execute
       from the injected section's entry state through the rest of the
       schedule and compare the final program outputs.}}

    Each mode is one driver, written once over a small per-engine state
    interface (enter a section, apply a memory flip, execute a section,
    compare with a golden boundary state, capture a buffer); the boxed
    {!Machine} and the {!Unboxed} engine contribute only those
    operations, so anomaly mapping, distances, the side-effect scan,
    the non-finite check, convergence and capture are shared. Both
    modes charge their work (dynamic instructions executed) to the
    caller, which is how analysis "core-hours" are accounted. *)

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
          are a no-op on both engines. *)

type engine =
  | Boxed    (** the tree-walking {!Machine} — the reference oracle *)
  | Unboxed  (** the pre-decoded {!Unboxed} engine over zero-copy
                 {!Workspace} scratch — bit-identical, several times
                 faster *)

val budget_of : timeout_factor:float -> int -> int
(** The dynamic-instruction budget a replay grants a section whose golden
    run executed [dyn_count] instructions: [timeout_factor ×] that count
    (floor 16). Exposed so the static outcome prover reasons about the
    exact budget the replay it stands in for would have used. *)

val buffer_distance :
  ?stop_at:float -> Ff_ir.Value.t array -> Ff_ir.Value.t array -> float
(** [buffer_distance golden actual] is the largest element-wise |Δ|
    between the two buffers. With [stop_at], the scan stops as soon as
    the running worst exceeds it — callers that only test
    [distance > threshold] (e.g. the side-effect scan) avoid reading the
    rest of the buffer; the early-exited value is only guaranteed to be
    on the same side of [stop_at] as the true maximum. *)

val exec_section :
  ?burst:int ->
  ?injection:Machine.injection ->
  Golden.t -> Golden.section_run -> edit:(Ustate.t -> unit) -> timeout_factor:float ->
  Workspace.t * Machine.run
(** The one path every unboxed single-section run takes: injected
    replays ({!run_section}), sensitivity sampling and detector
    synthesis. Resets this domain's {!Workspace} to the section's golden
    entry, applies [edit] to that state (a memory flip, a benign
    perturbation, or nothing), then runs the section on the {!Unboxed}
    engine with [injection] under [timeout_factor ×] its golden budget
    ({!budget_of}). Returns the workspace, whose [state] holds the
    section's exit (compare it against [plan.states.(i + 1)]); it is
    valid only until the next run on this domain. Only the section's
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

val run_section :
  ?burst:int ->
  ?engine:engine ->
  Golden.t -> Golden.section_run -> injection -> timeout_factor:float ->
  section_replay
(** Replay one section in isolation with an injected fault. [burst] only
    affects [Fault] register-flip operands. The section
    budget is [timeout_factor] × its golden dynamic instruction count
    (the paper uses 5×). The unboxed engine (default) runs in this
    domain's reusable workspace — per-replay setup is a blit of the entry
    state, not an allocation. *)

val run_section_capture :
  ?burst:int ->
  ?engine:engine ->
  Golden.t -> Golden.section_run -> injection -> timeout_factor:float ->
  buffers:int array ->
  section_replay * Ff_ir.Value.t array array option
(** {!run_section}, additionally returning the faulty contents of the
    requested program buffers at section exit (in request order, deep
    copies) when the replay completed, [None] when it was anomalous.
    This is the hook runtime-detector coverage measurement evaluates
    candidate checks against: both engines capture bit-identical boxed
    values, so detector verdicts never depend on the engine. A buffer
    the section does not bind is captured as its golden value: like the
    side-effect scan, a section replay does not inspect it (a memory
    flip of it included). *)

type program_replay = {
  p_anomaly : anomaly option;
  p_final_sdc : (int * float) list;
  (** per final output buffer index: max |Δ| vs the golden final state *)
  p_nonfinite : bool;
  p_executed : int;
}

val run_to_end :
  ?burst:int ->
  ?engine:engine ->
  Golden.t -> from_section:int -> injection -> timeout_factor:float ->
  program_replay
(** Replay the program from the entry of section [from_section] (injecting
    there) through the end of the schedule. Each section gets
    [timeout_factor] × its own golden budget. Mirrors Approxilyzer's
    early equivalence detection: if at any section boundary the faulty
    buffer state equals the golden state, the error is masked and the
    simulation stops there (charging only the work done so far). *)
