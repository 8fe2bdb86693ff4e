(** The end-to-end protect pipeline: synthesize → measure → select,
    plus the report and Pareto JSON the CLI prints.

    Runs on top of a completed {!Fastflip.Pipeline.analysis}: the
    per-section sensitivity specs seed detector synthesis, the
    valuation's SDC-Bad class labels are the coverage work list, and
    the mixed optimizer competes detectors against the analysis' own
    duplication knapsack. With [detectors_enabled = false] the result
    is exactly the pure-duplication selection, reported in the same
    format — the CLI's [--detectors] off/on diff is therefore a
    like-for-like comparison. *)

type t = {
  r_synth : Synthesize.t option;  (** [None] when detectors are disabled *)
  r_coverages : Coverage.t list;  (** ascending section order *)
  r_select : Select.t;
  r_target : float;       (** requested fractional value target *)
  r_mixed : Select.selection;
  r_pure : Fastflip.Knapsack.selection;
  r_work : int;           (** synthesis + coverage replay work *)
}

val run :
  ?pool:Ff_support.Pool.t ->
  ?backing:Fastflip.Pipeline.backing ->
  ?detectors_enabled:bool ->
  ?max_detectors:int ->
  ?focus:Ff_inject.Site.pc list ->
  Fastflip.Pipeline.config ->
  Fastflip.Pipeline.analysis ->
  target:float ->
  t
(** Synthesis seeds from [config]'s perturbation magnitude, safety
    factor, and RNG seed, with {!Synthesize.run}'s default training and
    validation run counts, so the whole protect run is a pure function
    of (program, config, target, focus) — byte-identical at any pool
    width. [target] is converted by {!Fastflip.Knapsack.integer_target}.
    Coverage replays go through [backing] when given, reusing cached
    measurements across runs. *)

val report : t -> string
(** Human-readable report: synthesis/coverage summary, the surviving
    detectors with measured coverage, and the mixed-vs-pure selection
    comparison at the target. *)

val pareto_json : t -> string
(** Machine-readable Pareto front: candidate detectors, the mixed
    front (value, cost, detector mask, duplicated-value split), the
    pure-duplication front, and the two selections at the target, under
    schema [fastflip.pareto/1]. Deterministic field order. *)
