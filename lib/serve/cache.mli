(** The daemon's warm-state cache: completed analyses keyed by
    [(program source, full config)] digest.

    A cached {!Fastflip.Pipeline.analysis} pins what a report needs:
    the golden run with its pre-decoded kernels, the per-section
    campaign and sensitivity records, the Chisel propagation, the
    valuation, and the solved knapsack. {!Ff_vm.Workspace} plans and the
    prover's liveness live in separate capped caches and are not pinned;
    a warm hit needs neither. It answers a repeat query with {e zero}
    decodes, replays, or store lookups — only a fresh knapsack selection
    at the requested target and a report render.

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

type outcome =
  | Hit        (** served from a completed warm entry *)
  | Coalesced  (** waited on another request's in-flight computation *)
  | Miss       (** this request ran the computation *)

val find_or_compute :
  t ->
  key:int64 ->
  compute:(unit -> Fastflip.Pipeline.analysis) ->
  (Fastflip.Pipeline.analysis, exn) result * outcome
(** [compute] runs without the cache lock. A raising [compute] is not
    cached: its exception is propagated to this caller and every
    coalesced waiter, and the next request with the same key retries. *)

val size : t -> int
(** Completed entries currently held. *)
