(** The daemon's warm-state cache: completed analyses keyed by
    [(program source, full config)] digest, each with the reports
    already rendered from it.

    An entry keeps a {!Report.basis}, not the
    {!Fastflip.Pipeline.analysis}: the report head (counters, the
    end-to-end SDC specification and the value/cost table) rendered
    once, the solved knapsack (run-encoded take rows and its frontier),
    and the valuation's total value and cost. The golden run, the
    dataflow graph, the Chisel propagation and the valuation's class
    labels are collectable once the basis is built; the section records
    stay in the shared store. Replay {!Ff_vm.Workspace}s (domain-local)
    and the prover's section recordings ({!Ff_support.Ephemeron_cache})
    live in separate capped caches, each an ephemeron on its golden run
    or section run, so neither keeps a dropped analysis alive, and a
    warm hit needs neither.
    The entry also memoizes the report text rendered for each
    recent target, so a repeat query is a hash, an LRU lookup and the
    memoized bytes: {e zero} compiles, decodes, replays, store lookups,
    selections or renders.

    Concurrent identical requests {e coalesce}: the first computes, the
    rest block on a condition variable and wake to the finished entry.
    This is what makes daemon responses byte-identical at any client
    count — two racing cold analyses of the same program would otherwise
    disagree on the "sections reused" accounting (the second would hit
    the store records the first just published).

    Thread-safe; the compute callback runs {e outside} the cache lock, so
    distinct keys never serialize behind each other here. *)

type t

val create : ?capacity:int -> unit -> t
(** LRU-bounded cache ([capacity] completed entries, default 32; 0 keeps
    nothing warm, which degrades every request to admission-controlled
    store access — useful in tests). In-flight computations are never
    evicted. Raises [Invalid_argument] on a negative capacity. *)

type entry
(** A completed analysis's report basis and its memoized reports. *)

val report : entry -> target:float -> string
(** [Report.analysis ~target] of the entry's analysis, rendered from its
    basis ({!Report.render}) on the first request for these exact target
    bits and memoized for the {!report_capacity} most recently rendered
    targets. Lock-free and safe from any thread. *)

val report_capacity : int
(** Reports memoized per entry (8): a fixed bound, so an entry's
    footprint cannot grow with the number of distinct targets asked. *)

val reports_held : entry -> int
(** Reports the entry currently memoizes. *)

type outcome =
  | Hit        (** served from a completed warm entry *)
  | Coalesced  (** waited on another request's in-flight computation *)
  | Miss       (** this request ran the computation *)

val find_or_compute :
  t ->
  key:int64 ->
  compute:(unit -> Fastflip.Pipeline.analysis) ->
  (entry, exn) result * outcome
(** [compute] and the {!Report.basis} of its analysis run without the
    cache lock; the entry keeps only the basis. A raising [compute] is
    not cached: its exception is returned to this caller, and every
    coalesced waiter and later request with the same key runs [compute]
    again, so a deterministic failure gives each the same error. *)

val size : t -> int
(** Completed entries currently held. *)
