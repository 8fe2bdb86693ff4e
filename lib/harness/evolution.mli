(** Long-evolution experiment: FastFlip across a chain of commits.

    The paper's Table 3 covers one modification at a time; this experiment
    plays out the §4.10 workflow over a longer history: a benchmark
    receives a sequence of small bit-identical edits (each touching a
    different kernel), FastFlip reuses everything untouched, reuses its
    adjusted targets while m_adj < P_adj, and pays for a fresh
    simultaneous ground-truth run whenever the refresh threshold fires.
    The cumulative FastFlip work is compared with re-running the
    monolithic baseline at every commit. *)

type step = {
  commit : int;          (** 0 = the unmodified program *)
  edited_kernel : string;
  ff_work : int;         (** FastFlip work this commit, including the
                             ground-truth campaign on refresh commits *)
  base_work : int;       (** the monolithic baseline's (full) rerun *)
  refreshed : bool;      (** m_adj reached P_adj: targets re-adjusted *)
  achieved : float;      (** v_achv at target 0.90 under this commit's
                             ground-truth labels *)
  sections_reused : int;
  sections_total : int;
}

val run :
  ?config:Fastflip.Pipeline.config ->
  ?p_adj:int ->
  ?commits:int ->
  Ff_benchmarks.Defs.t ->
  step list
(** Default: 8 commits, P_adj = 3. The edits cycle through the
    benchmark's kernels, each inserting a store of an unchanged value
    (bit-identical outputs, different code hash). *)

val fields : step list -> string * Tables.field list
(** The title and one row object per commit ([steps]), plus the
    [cumulative work fastflip] and [cumulative work baseline] sums and
    the [cumulative speedup] (baseline over FastFlip). *)
