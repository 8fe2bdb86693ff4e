(** Static outcome prover: decide equivalence-class outcomes without
    replay.

    Runs over the decoded IR ({!Ff_vm.Decode}) plus the section's golden
    trace, before any injection is simulated, and proves outcomes for
    whole {!Eqclass.t} classes by an exact single-fault taint walk along
    the concrete golden schedule:

    - flips that are dead or overwritten before use (the taint dies
      before the section ends) are {e Masked} — all-zero section SDC;
    - flips whose only consumer provably traps (a corrupted address or
      bounds computation going out of range, a division forced to zero,
      an invalid conversion) with no dataflow escaping first are
      {e Crash};
    - flips the walk follows to the section's end get their exact
      section SDC ({e Benign}) — the walk computes the replay's section
      SDC magnitudes bit for bit, so every completed walk is decided.

    Everything else — control-flow divergence, loads/stores through a
    corrupted index, non-finite faulty values, side-effect writes — is
    left {e undecided} and replayed as usual. Decisions are
    differential-tested against full replay as the oracle: the prover
    may abstain, it may never disagree.

    The golden values the walk starts from are recorded by running the
    section through {!Ff_vm.Machine.step}, the interpreter's own
    dispatch, and the recording is discarded unless its pc stream and
    exit buffers match the golden run bit for bit.

    Proofs only consult golden data, so they are identical for every
    pool width and execution engine. Fold {!policy_hash} (which covers
    {!version}) into any persistent key caching campaign results. *)

type policy = { enabled : bool }

val version : int
(** Bump on any change to what the prover claims; {!policy_hash} folds
    it in so stores and journals never mix prover generations. *)

val off : policy
(** Prover disabled: every class is residual. *)

val on : policy
(** Prover enabled. *)

val default_policy : policy
(** {!on}, unless the [FF_PROVE=off] environment escape hatch is set —
    the field knob for bisecting a suspected prover divergence without
    rebuilding. *)

val policy_hash : policy -> int64
(** Hash of the policy {e and} {!version}, for store keys. *)

val prove_section :
  Ff_vm.Golden.t ->
  section_index:int ->
  timeout_factor:float ->
  model:Fault_model.t ->
  policy ->
  Eqclass.t array ->
  Outcome.section_outcome option array
(** One entry per class: [Some outcome] iff the prover decided it, in
    which case a section replay of the class pilot is guaranteed to
    report exactly that outcome. Bumps the [prover.classes_*] telemetry
    counters. A disabled policy, an unrecordable section (budget below
    the golden schedule, self-validation failure, non-finite golden
    exit) or an out-of-section pilot yields [None] rows.

    The walk mirrors register flips only, so only {!Fault_model.Bitflip}
    classes are ever decided (any burst width — the walk flips the same
    {!Ff_vm.Machine.burst_bits} mask the replay does). Under skip,
    encoding-corruption and memory-flip models the prover abstains
    wholesale: every row is [None], counted as undecided. Abstention
    keeps the soundness contract trivially — those classes replay as
    usual and the prover still never disagrees with the oracle. *)

val prove_final :
  Ff_vm.Golden.t ->
  section_index:int ->
  timeout_factor:float ->
  model:Fault_model.t ->
  policy ->
  Eqclass.t array ->
  Outcome.final_outcome option array
(** {!prove_section}'s end-to-end scope, the pre-pass of
    {!Campaign.final_outcomes_for_section} (which the prover ≡ replay
    tests use): the same walk of each pilot, but only proofs that
    survive to the end of the program are claimed — a fault with no
    surviving taint at its section boundary converges with the golden
    run (all-zero final SDC, exactly like [Replay.run_to_end]'s
    early-equivalence detection), and a proved in-section trap is a
    final Crash. Everything else is [None]. Bumps [prover.final_*]. *)
