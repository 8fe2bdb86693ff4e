(** The FastFlip analysis pipeline for one program version (paper §4,
    Figure 2): per-section error injection + sensitivity analysis, both
    served from the incremental {!Store} when possible; end-to-end Chisel
    propagation; Algorithm-2 valuation; knapsack solution.

    Analysis "time" is metered in dynamic instructions simulated. The
    work reported for a version counts only sections actually re-analyzed
    — reused sections cost nothing, which is FastFlip's speedup on
    evolving programs (§6.2). *)

type config = {
  campaign : Ff_inject.Campaign.config;
  sensitivity_samples : int;
  max_perturbation : float;
  safety_factor : float;
  epsilon : float;       (** SDC-Bad threshold ε (0 = any SDC is bad) *)
  seed : int64;          (** sensitivity RNG seed *)
}

val default_config : config
(** Paper settings scaled down: default bit subset, 5× timeout, 200
    sensitivity samples per input, perturbations up to 0.01, safety 1.25,
    ε = 0, seed 42. *)

type analysis = {
  golden : Ff_vm.Golden.t;
  dataflow : Ff_chisel.Dataflow.t;
  sections : Store.section_record array;  (** one per schedule section *)
  propagation : Ff_chisel.Propagate.t;
  valuation : Valuation.t;
  solution : Knapsack.solution;
  work : int;             (** injection+sensitivity work spent on THIS run *)
  total_section_work : int;  (** what a from-scratch run would have cost *)
  sections_reused : int;
  sections_analyzed : int;
}

val config_hash : config -> int64
(** Digest of the full analysis configuration — campaign (bits, burst,
    timeout, prover policy), sensitivity sampling, seed, and ε. Two
    configs with equal hashes produce the same analysis of the same
    program; the serve daemon keys its warm-state cache on
    [(source, config_hash)]. Note this is {e not} the per-section store
    key's config component (which excludes ε, because stored outcomes can
    be re-labeled under a new ε without re-injection). *)

val coverage_key :
  config -> Ff_vm.Golden.section_run -> detector_hash:int64 -> Store.key
(** The store key under which injection-measured detector coverage of
    this section is cached: the section's campaign store key scoped by
    [detector_hash] (the digest of the exact candidate detector set), a
    coverage-format version, and ε (the bad-class set being measured is
    ε-dependent). The scoping keeps coverage records in a key space
    disjoint from campaign records, so both kinds share one store file,
    one save path, and one salvage story. *)

type prepared = {
  p_program : Ff_ir.Program.t;
  p_golden : Ff_vm.Golden.t;      (** carries the decoded kernels *)
  p_dataflow : Ff_chisel.Dataflow.t;
  p_keys : Store.key array;       (** store key of each schedule section *)
}
(** Pre-warmed analysis state: everything {!analyze} derives before it
    decides what to inject. The serve daemon computes this once per
    request, probes the store with [p_keys] to classify the request as
    replay-free or injection-bound ({e admission control}), and then
    hands it to {!analyze_prepared} — nothing is re-derived. *)

val prepare : config -> Ff_ir.Program.t -> prepared
(** Golden-run the program, build the dataflow summary, and compute the
    per-section store keys. Raises [Failure] if the golden run traps. *)

type backing = {
  lookup : Store.key -> Store.section_record option;
  publish : Store.section_record -> unit;
}
(** Store access as first-class callbacks, so a caller that shares one
    store between concurrent analyses (the serve daemon) can interpose a
    lock held only for the microseconds of each lookup/insert — never for
    the duration of a campaign. *)

val backing_of_store : Store.t -> backing
(** Plain unsynchronized access — what the one-shot CLI uses. *)

val analyze_prepared :
  ?backing:backing ->
  ?pool:Ff_support.Pool.t ->
  ?journal:(Store.key -> Ff_inject.Campaign.journal) ->
  config ->
  prepared ->
  analysis
(** {!analyze} starting from pre-warmed state: identical semantics,
    counters, and results, but the golden run, dataflow, and section keys
    are taken from [prepared] instead of being re-derived. Without a
    [backing] every section is re-analyzed (no store). *)

val analyze :
  ?store:Store.t ->
  ?pool:Ff_support.Pool.t ->
  ?journal:(Store.key -> Ff_inject.Campaign.journal) ->
  config ->
  Ff_ir.Program.t ->
  analysis
(** Analyze one program version. With a [store], section results are
    looked up by (code, input, config) hash and new results are added,
    so analyzing a modified version after its parent re-injects only the
    changed (and semantically affected) sections.

    With a [pool], cache-miss sections are analyzed across domains (and a
    lone miss parallelizes its own campaign/sensitivity loops instead).
    The store stays single-writer: every lookup and insertion happens on
    the coordinating domain in schedule order, so the analysis — records,
    valuation, solution, work and reuse counters, store telemetry — is
    bit-identical to the serial run for any pool width.

    With a [journal], every cache-miss campaign journals its completed
    equivalence classes through [journal key] (the CLI passes
    {!Persist.progress_journal}): an analysis killed mid-campaign and
    re-run against the resumed journal replays only the unfinished
    classes and produces the same analysis bit-for-bit — sections,
    valuation, solution, and work counters — as an uninterrupted run, for
    any pool width. *)

val select : analysis -> target:float -> Knapsack.selection
(** Knapsack selection for a fractional target v_trgt ∈ [0, 1] of this
    analysis' own value mass, converted by {!Knapsack.integer_target}
    (out-of-range targets clamp; a non-finite one raises
    [Invalid_argument]). *)

val revaluate : analysis -> epsilon:float -> analysis
(** Re-label the stored injection outcomes under a different ε and
    rebuild valuation + knapsack without any new injections (the paper
    gets its ε = 0.01 results "for negligible additional analysis time",
    §6.4). *)
