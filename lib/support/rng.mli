(** Deterministic pseudo-random number generation.

    All randomized components of the analysis (sensitivity perturbation,
    pilot selection jitter, workload generation) draw from this splittable
    SplitMix64 generator so that every experiment is reproducible from a
    seed. The standard library [Random] is deliberately not used anywhere
    in the repository. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int -> int64
(** [bits t n] returns an int64 with only the low [n] bits random
    ([0 <= n <= 64]). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_signed : t -> float -> float
(** [float_signed t m] is uniform in [\[-m, m\]]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
