(** Small statistics toolkit used by the experiment harness, the bench
    and the repository benchmark (geomeans, extremes, percentiles). *)

val geomean : float list -> float
(** Geometric mean of strictly positive values; 0 on the empty list.
    Raises [Invalid_argument] if any value is not positive. *)

val min_max : float list -> float * float
(** Smallest and largest value. Raises [Invalid_argument] on []. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [\[0, 100\]], nearest-rank method.
    Raises [Invalid_argument] on []. *)

val median : float list -> float
(** 50th percentile. *)
