(** Zero-dependency observability for the analysis engine.

    The injection engine's headline claims (incremental re-analysis
    savings, parallel speedup) are only defensible if the quantities
    behind them — per-section injection counts, store hit/miss rates,
    knapsack solve times, pool utilization — are first-class observable
    values rather than ad-hoc prints. This module provides them as a
    process-wide registry of

    {ul
    {- {b counters}: named monotonic integers, bumped atomically from any
       pool domain;}
    {- {b histograms}: named power-of-two bucketed distributions of
       non-negative integers (section work, solve sizes);}
    {- {b spans}: named, nested wall-clock timings aggregated by path
       ([parent/child]); the active span path is domain-local and the
       {!Pool} propagates it into worker domains, so nesting is identical
       for every domain count;}
    {- {b progress}: a rate-limited [done/total + ETA] stderr line for
       long campaigns.}}

    {b Disabled-path cost.} The registry starts disabled ({!set_enabled}
    turns it on; the CLI's and the bench's [--metrics] do) and every
    probe checks one atomic boolean first: a disabled counter bump or
    span is a single load-and-branch. Handles are interned once at module
    initialization, never on the hot path.

    {b Determinism.} Deterministic quantities (counters, histograms,
    span {e counts}) are segregated from wall-clock and
    scheduling-dependent quantities (span durations, per-domain task
    splits, wait times — registered as {e volatile}). {!to_json} with
    [~timings:false] emits only the deterministic part, sorted by name:
    two runs of the same seeded analysis produce byte-identical output
    regardless of domain count. *)

type counter
type histogram

val enabled : unit -> bool
(** Whether probes currently record. Initially [false]. *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every counter and histogram and drop all span aggregates.
    Interned handles stay valid. *)

(** {1 Counters} *)

val counter : ?volatile:bool -> string -> counter
(** [counter name] interns (or retrieves) the counter [name]. Call it
    once per site, at module initialization. [volatile] marks values
    that legitimately depend on scheduling (per-domain task counts,
    wait times); they are exported under the [timings] section so the
    deterministic export stays bit-stable. The volatility of an
    already-interned counter is not changed by re-interning. *)

val add : counter -> int -> unit
(** One branch when disabled; an atomic fetch-and-add when enabled. *)

val incr : counter -> unit

val value : counter -> int
(** Current value (0 when never enabled). *)

(** {1 Histograms} *)

val histogram : ?volatile:bool -> string -> histogram
(** Buckets are powers of two: observation [v] lands in the bucket
    holding values of its bit-width ([v <= 0] in bucket 0). [volatile]
    marks distributions that legitimately depend on wall-clock or
    scheduling (request latencies in the serve daemon); they are exported
    under the [timings] section so the deterministic export stays
    bit-stable. As with counters, the volatility of an already-interned
    histogram is not changed by re-interning. *)

val observe : histogram -> int -> unit

val timed : histogram -> (unit -> 'a) -> 'a
(** [timed h f] runs [f ()] and observes its wall-clock duration in
    {e microseconds} into [h] (one branch when disabled; records and
    re-raises on exception). Pair it with a [volatile] histogram — the
    serve daemon's per-request latency probe. *)

(** {1 Spans} *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] on the monotonic-intent process clock and
    aggregates (count, total, max) under the domain-local span path
    [parent/.../name]. [attrs] (sorted, rendered as [name{k=v,...}])
    let callers split a span by a deterministic dimension such as the
    section index. Exceptions still record the span and re-raise. When
    disabled, [span name f] is [f ()] plus one branch. *)

val current_path : unit -> string
(** The calling domain's active span path ([""] outside any span). *)

val with_path : string -> (unit -> 'a) -> 'a
(** Run [f] with the domain-local span path set to [path], restoring the
    previous path afterwards. Used by {!Pool} to propagate the
    submitting domain's span context into workers so span nesting never
    depends on which domain ran a chunk. *)

val now_ns : unit -> int
(** Nanoseconds on the process clock (for callers accumulating volatile
    durations into counters). *)

(** {1 Progress} *)

type progress

val progress : label:string -> total:int -> progress
(** A [done/total] progress meter. It prints (rate-limited, to stderr,
    [\r]-rewriting one line with percentage and ETA) only when the
    [FF_PROGRESS] environment variable is truthy, or when telemetry is
    enabled and stderr is a terminal — so tests and redirected runs stay
    byte-identical. Stepping is always safe from any domain. *)

val step : progress -> unit

val completed : progress -> int

val finish : progress -> unit
(** Terminate the meter's line if it printed anything. *)

(** {1 Snapshot and export} *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : int;
  hs_buckets : (int * int) list;  (** (inclusive upper bound, count), ascending, non-empty buckets only *)
}

type span_snapshot = {
  sp_count : int;
  sp_total_ns : int;
  sp_max_ns : int;
}

type snapshot = {
  snap_counters : (string * int) list;           (** deterministic, sorted by name *)
  snap_volatile : (string * int) list;           (** scheduling-dependent, sorted *)
  snap_histograms : (string * hist_snapshot) list;
  snap_volatile_histograms : (string * hist_snapshot) list;
  (** wall-clock distributions (serve latencies), exported under timings *)
  snap_spans : (string * span_snapshot) list;    (** counts deterministic; durations volatile *)
}

val snapshot : unit -> snapshot

val to_json : ?timings:bool -> snapshot -> string
(** Deterministic JSON ({!Json.to_string}), names sorted: [schema]
    ["fastflip.metrics/1"], then [counters], [histograms] and [spans]
    (name -> count), which hold only deterministic values; [timings]
    holds span durations and volatile counters and histograms and is
    omitted entirely with [~timings:false]. *)

val write : ?timings:bool -> path:string -> unit -> unit
(** [write ~path ()] saves [to_json (snapshot ())] to [path]. *)
