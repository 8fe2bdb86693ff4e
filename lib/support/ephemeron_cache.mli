(** Small lock-free caches keyed by the physical identity of a
    long-lived value (a golden run, a section run, a decoded kernel).

    Each entry is an ephemeron on its key, so the cache never keeps a
    key, or the value computed from it, alive that nothing else holds:
    the value lives exactly as long as its key. The entries are an
    immutable list behind an [Atomic.t], so a hit is a load and a short
    walk with no lock traffic between domains. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** A cache that keeps at most the given number of most recent entries
    (at least 1). *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The value cached for this exact key, else the computed one, which is
    then published by compare-and-set. Losing a publish race to another
    domain returns the winner's value, so every caller settles on one;
    evicting merely re-pays one computation. *)
