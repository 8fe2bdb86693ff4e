(** Detector synthesis from the golden trace plus benign perturbed runs.

    For each schedule section (optionally restricted to a focus set
    seeded from security findings), learn candidate detectors on its
    output buffers:

    {ul
    {- a [Finite] guard whenever the golden exit is finite;}
    {- a [Range] check with bounds from the golden exit min/max widened
       by the section's Lipschitz constant × [max_perturbation] ×
       [safety_factor] (skipped when K is infinite — no range can both
       hold benignly and stay tight), then further widened to cover
       every benign training run;}
    {- a [Linear] sum invariant fit by least squares over the training
       runs, only for sections reading exactly one buffer (so the
       invariant is sound against perturbations of any input), with
       tolerance = max training residual × [safety_factor].}}

    Training and validation runs are golden entries ε-perturbed by
    {!Ff_sensitivity.Sensitivity.perturb}, the estimator's own model,
    seeded from (seed, section, run index) — deterministic at any pool
    width. Candidates that fire on any validation run are dropped, so
    the surviving set has a {e measured} benign false-positive rate of
    zero by construction (reported, not assumed). *)

type t = {
  candidates : Detector.t array array;  (** per schedule section *)
  spec_hash : int64;  (** {!Detector.spec_hash} of [candidates] *)
  train_runs : int;       (** benign training runs per section *)
  validation_runs : int;  (** benign validation runs per section *)
  fp_fires : int;   (** validation fires of the surviving set: always 0 *)
  dropped : int;    (** candidates dropped for firing on a benign run *)
  work : int;       (** dynamic instructions simulated *)
}

val run :
  ?pool:Ff_support.Pool.t ->
  ?train:int ->
  ?validate:int ->
  ?max_perturbation:float ->
  ?safety_factor:float ->
  ?focus:Ff_inject.Site.pc list ->
  seed:int64 ->
  Ff_vm.Golden.t ->
  specs:Ff_sensitivity.Sensitivity.t array ->
  t
(** [specs.(s)] must be the sensitivity spec of schedule section [s]
    (the pipeline's per-section records provide exactly this).
    Defaults: 40 training and 40 validation runs per section,
    perturbation 0.01, safety factor 1.25. With [focus], only sections
    whose kernel contains a focus pc get candidates — the
    security-findings seeding of detector placement. *)

val focus_of_json : string -> (Ff_inject.Site.pc list, string) result
(** The finding pcs ([findings[].kernel/instr]) of a [fastflip security
    --json] export, in order. Text that does not parse, a schema other
    than [fastflip.security/1] or a finding without integer
    [kernel]/[instr] is an error naming what is wrong. *)
