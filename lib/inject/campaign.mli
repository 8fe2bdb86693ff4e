(** Injection campaigns: the expensive part of the analysis.

    A campaign enumerates equivalence classes, injects each pilot, and
    records the outcome for the whole class. Work is metered in dynamic
    instructions simulated — the deterministic stand-in for the paper's
    core-hours (error injection accounts for 99% of FastFlip's analysis
    time, §6.2).

    Every replay is independent of every other, so campaigns accept an
    optional {!Ff_support.Pool.t} and fan the classes out across domains.
    Results are bit-identical to the serial run for any pool width:
    outcomes land in class-enumeration order and work counters are summed
    from per-class counts.

    The three campaigns below are one class driver at two injection
    scopes: the section scope ({!run_section}) and the end-to-end scope
    ({!run_baseline}, {!final_outcomes_for_section}). The driver runs
    the optional {!Prover} pre-pass, fans the residual classes out on
    one path (batched through a {!journal} when one is given), interns
    the outcomes and sums the work. *)

type config = {
  bits : Site.bit_policy;
  timeout_factor : float;  (** budget multiple over nominal runtime; 5.0 *)
  model : Fault_model.t;   (** the fault model: what a site is, what an
                               injection does, and what the prover may
                               decide. {!Fault_model.default} is the
                               paper's single-bit register flip *)
  prove : Prover.policy;   (** static outcome prover pre-pass: proved classes
                               record their outcome with zero injections;
                               {!Prover.off} replays everything *)
}

val default_config : config
(** {!Site.default_bits}, timeout factor 5, single-bit register flips,
    prover per {!Prover.default_policy} (on unless [FF_PROVE=off]). *)

val config_hash : config -> int64
(** Key component for the incremental analysis store: results are only
    reusable under the same campaign configuration. Folds the fault model
    ({!Fault_model.hash_fold} — the default model hashes identically to
    the pre-model engine, so existing stores stay warm) and
    {!Prover.policy_hash} (prover version included), so different models,
    prove-on and prove-off runs — and different prover generations —
    never share cached records or checkpoint journals. *)

type section_result = {
  section_index : int;
  s_classes : (Eqclass.t * Outcome.section_outcome) array;
  s_work : int;        (** dynamic instructions simulated (residual replays) *)
  s_injections : int;  (** pilots actually replayed — proved classes cost
                           none, so this is [|s_classes|] minus the proved
                           count (see [campaign.injections_avoided]) *)
  s_sites : int;       (** |J_s| covered (class members) *)
}

type journal = {
  j_every : int;
  (** checkpoint cadence: completed class outcomes are appended after
      every batch of [j_every] classes (must be >= 1) *)
  j_done : (int, Outcome.section_outcome * int) Hashtbl.t;
  (** outcomes recovered from a previous run, keyed by class index in
      enumeration order: these classes are restored without replaying *)
  j_append : (int * Outcome.section_outcome * int) list -> unit;
  (** called once per completed batch with [(class_index, outcome, work)]
      triples; expected to make them durable before returning (the
      [Fastflip.Persist.progress_journal] implementation appends one
      CRC-framed batch to the store's progress log and fsyncs). May be
      called from a pool worker domain. *)
}
(** Checkpointing hooks for {!run_section}. The class enumeration for a
    fixed (kernel code, golden input, config) key is deterministic, so
    class {e indices} are a stable identity — the journal never needs to
    re-serialize the classes themselves. *)

val run_section :
  ?pool:Ff_support.Pool.t ->
  ?classes:Eqclass.t list ->
  ?journal:journal ->
  Ff_vm.Golden.t -> section_index:int -> config -> section_result
(** FastFlip's per-section campaign: each pilot runs the section in
    isolation from its golden entry state, on the {!Ff_vm.Unboxed}
    engine. [classes] supplies a pre-enumerated class list (it must be
    {!Eqclass.for_section} of this section under [config]); when absent
    the classes are enumerated here.

    The {!Prover} pre-pass runs first (unless [config.prove] disables
    it), partitioning the classes into {e proved} — outcome recorded
    with zero injections and zero metered work, counted under
    [prover.classes_*] and [campaign.injections_avoided] — and
    {e residual}, which fan out to the pool exactly as before. Proved
    outcomes equal what the replay would have produced bit for bit, so
    [s_classes] is identical with the prover on or off; only
    [s_injections]/[s_work] shrink.

    With a [journal], residual outcomes present in [j_done] are restored
    without replaying and the rest run in batches of [j_every] classes,
    each batch checkpointed through [j_append] — a campaign killed at
    any point resumes to a bit-identical [section_result] (outcomes
    {e and} work counters). Proved classes are never journaled: the
    prover re-decides them deterministically on resume (the store key
    pins the prover policy). Without a journal, the residual classes fan
    out over the pool in a single map.

    Replays are {e quarantined} ({!Ff_support.Pool.map_array_result}): a
    replay that raises is retried once and then recorded as a
    [S_detected Crash] outcome with 0 work against its own class key —
    whatever the model's operand shape ([Src]/[Dst], [Op] or [Mem]) —
    counted under [campaign.retries] / [campaign.quarantined] and the
    per-model [campaign.model.<name>.quarantined(.sites)] counters,
    instead of aborting the campaign. *)

type baseline_result = {
  b_classes : (Eqclass.t * Outcome.final_outcome) array;
  b_work : int;
  b_injections : int;
  b_sites : int;
}

val run_baseline :
  ?pool:Ff_support.Pool.t ->
  Ff_vm.Golden.t -> config -> baseline_result
(** The monolithic Approxilyzer-style campaign: whole-trace equivalence
    classes, each pilot runs from its section's entry state through the
    end of the program. No prover pre-pass runs, so [b_injections] is
    the class count; quarantine is as in {!run_section}. *)

val final_outcomes_for_section :
  ?pool:Ff_support.Pool.t ->
  ?classes:Eqclass.t array ->
  Ff_vm.Golden.t -> section_index:int -> config -> (Eqclass.t * Outcome.final_outcome) array * int
(** The end-to-end scope over one section's per-section classes: each
    pilot runs from the section's entry state through the end of the
    program, after the {!Prover.prove_final} pre-pass (unless
    [config.prove] disables it). Returns the classes with final outcomes
    and the work spent, counted under [campaign.final.*]. The prover ≡
    replay tests compare it with {!run_section}; the harness's ground
    truth is [Baseline.analyze] ({!run_baseline}), not this function.
    [classes] lets a caller that already enumerated the section's
    equivalence classes reuse them instead of re-enumerating. *)
