(** Security campaign mode: read an end-to-end injection campaign as an
    attack-surface analysis instead of a reliability analysis.

    A fault model like {!Ff_inject.Fault_model.Skip} or a targeted flip
    is an attacker primitive: gliching one instruction, corrupting one
    encoding, flipping entry-state memory. This module runs the same
    whole-trace campaign as the monolithic baseline under such a model
    and re-labels the outcomes for that threat:

    - {e silent corruption} — the program completed without any trap,
      timeout or misformatted output, and the output differs from golden
      beyond epsilon. This is the damage: a bypassed check or leaked
      state the victim never notices.
    - {e detected} — the attack was loud (trap/timeout/misformatted);
      a fail-stop system survives it.
    - {e masked} — the fault was absorbed; no attack.

    The valuation and knapsack machinery is reused verbatim with this
    new notion of damage: v(pc) counts silently-corrupting sites at pc,
    so the knapsack answers "which instructions to harden first"
    under the threat model. Findings classify each vulnerable pc as a
    check bypass (comparisons, branches, selects — e.g. the [hit] guard
    of the SHA2 lookup-table kernel), state corruption (memory traffic
    or entry-state flips) or compute corruption. *)

type kind =
  | Check_bypass
  | State_corruption
  | Compute_corruption

type finding = {
  f_pc : Ff_inject.Site.pc;
  f_kind : kind;
  f_instr : string;
  f_bad_sites : int;
  f_total_sites : int;
}

type t = {
  s_model : Ff_inject.Fault_model.t;
  s_epsilon : float;
  s_sites : int;
  s_classes : int;
  s_silent : int;
  s_detected : int;
  s_masked : int;
  s_findings : finding list;
  s_baseline : Baseline.t;
      (** the whole-trace campaign, its valuation and knapsack solution *)
}

val analyze :
  ?pool:Ff_support.Pool.t ->
  epsilon:float ->
  Ff_vm.Golden.t ->
  Ff_inject.Campaign.config ->
  t
(** Run the whole-trace campaign under [config] (whose
    [Campaign.config.model] is the threat model) and label every class
    for the attacker, on top of {!Baseline.analyze}. Deterministic for
    any pool width. *)

val findings_json : t -> string
(** The findings as deterministic JSON: campaign summary (model, ε,
    outcome tallies) plus one object per finding with [kernel]/[instr]
    (the pc), [kind], [silent_sites] (the damage mass), [total_sites]
    and the printed [instruction]. Written by
    [fastflip security --json out.json]; consumed by
    [fastflip protect --seed-security] to prioritize detector placement
    at the sections whose kernels contain vulnerable pcs. *)

val report : ?target:float -> t -> string
(** Printable summary: outcome tallies, the vulnerable-instruction table
    (damage-first) and the protect-first selection (default target
    0.9). *)
