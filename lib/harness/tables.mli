(** Every table and figure in the paper's evaluation, and the ablations of
    the design choices DESIGN.md calls out, as typed results.

    Each function takes pre-computed {!Experiments.benchmark_run}s, so
    the benchmark executable can run the expensive analyses once and
    produce all artifacts. Each returns a title, which carries every line
    of prose (captions, the ablation trailers, Figure 1's specification
    and curves), and the numbers as named fields: a table is a list of
    row objects under one key, a summary line a scalar field. The bench
    prints them as text tables, whose headers are the keys, and writes
    them to [BENCH_<artifact>.json]. *)

type field = string * Ff_support.Json.t

val objects : field list list -> Ff_support.Json.t
(** A table's rows, one object each. *)

val table1 : Experiments.benchmark_run list -> string * field list
(** Table 1: per benchmark ([rows]) the input size, sections, golden
    trace length ([trace]) and error sites |J| in thousands ([sites_k]),
    counted by the analysis's own section campaigns, so under the bit
    subset the run was configured with. *)

val table2 :
  ?epsilon_label:string ->
  (Experiments.benchmark_run ->
  Experiments.version_result ->
  Fastflip.Compare.row list) ->
  Experiments.benchmark_run list ->
  string * field list
(** Table 2 (and its §6.4 variant): per version ([rows]) and target [T],
    [value@T], [acceptable@T], [cost@T] and [cost_diff@T]; and the
    [geomean cost @T] fields. The row function lets the caller choose
    plain / adjusted / ε-relabeled rows. *)

val table3 : Experiments.benchmark_run list -> string * field list
(** Table 3: per version ([rows]) the analysis work in
    mega-instructions for FastFlip and the baseline, [speedup] (baseline
    over FastFlip work), sections [reused] of [sections]; and the
    [geomean speedup] and [max] speedup over the modified versions. *)

val table4 : Experiments.benchmark_run -> string * field list
(** Table 4: Campipe without target adjustment, [value@T] and
    [acceptable@T] per version ([rows]). *)

val figure1 : ?targets:float list -> Experiments.benchmark_run -> string * field list
(** Figure 1 for the unmodified version of a run (the paper uses LUD):
    one [series] row per target (default 0.900 to 1.000 by 0.005) with
    the achieved value and both protection costs. The title holds the
    Equation-2-style end-to-end SDC specification and the ASCII curves
    of the same rows. *)

val ablations :
  config:Fastflip.Pipeline.config ->
  burst_on:Ff_benchmarks.Defs.t ->
  Experiments.benchmark_run list ->
  string * field list
(** {ul
    {- [cost_models]: how the §4.8 protection-cost model changes the
       cost of hitting the same target — per-instruction duplication vs
       DRIFT-style clustered checks vs per-kernel block detectors.}
    {- [burst]: the single-event-upset assumption — outcome mix and
       SDC-Bad value mass under 1-, 2- and 4-bit burst flips, analyzing
       [burst_on]'s unmodified version under [config].}
    {- [pruning]: what equivalence-class pruning buys — pilots injected
       vs the [sites] covered, per analysis.}} *)
