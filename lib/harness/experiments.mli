(** Experiment runner: analyzes benchmark versions with FastFlip and the
    monolithic baseline, maintaining the incremental store across versions
    and the paper's adjusted targets across modifications (§4.10). *)

type version_result = {
  version : Ff_benchmarks.Defs.version;
  program : Ff_ir.Program.t;
  ff : Fastflip.Pipeline.analysis;
  base : Fastflip.Baseline.t;
  ff_work : int;    (** injection+sensitivity work this version cost FastFlip *)
  base_work : int;  (** the baseline's (non-reusable) campaign work *)
}

type benchmark_run = {
  bench : Ff_benchmarks.Defs.t;
  results : version_result list;  (** None, Small, Large in order *)
  adjusted_targets : (float * float) list;
  (** (v_trgt, v'_trgt) computed on the unmodified version and reused for
      the modified ones *)
}

val standard_targets : float list
(** 0.90, 0.95, 0.99 (§5.6). *)

val run_benchmark :
  ?config:Fastflip.Pipeline.config ->
  ?pool:Ff_support.Pool.t ->
  ?store:Fastflip.Store.t ->
  Ff_benchmarks.Defs.t ->
  benchmark_run
(** Analyze the three versions sharing one incremental store; compute
    adjusted targets on the first (unmodified) version.
    [pool] parallelizes both analyses; results are identical to the
    serial run for any pool width. [store] substitutes a caller-owned
    store (e.g. one loaded from disk by the bench harness's [--store])
    for the default fresh one — a warm store turns repeat analyses into
    pure reuse, which changes the work accounting the tables report. *)

val at_epsilon : epsilon:float -> benchmark_run -> benchmark_run
(** The run re-labeled under a different ε (§6.4): each version's two
    analyses relabeled once from their stored outcomes (no injection
    runs), and the adjusted targets recomputed on the unmodified
    version's relabeled analyses. *)

val utility_rows :
  ?adjusted:bool -> benchmark_run -> version_result -> Fastflip.Compare.row list
(** The Table 2 rows of one version: one row per standard target, using
    the run's adjusted targets (or the raw targets when [adjusted] is
    false — the Table 4 ablation). *)

val speedup : version_result -> float
(** base_work / ff_work. *)
