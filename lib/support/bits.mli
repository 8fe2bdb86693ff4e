(** Bit-level manipulation of 64-bit machine words.

    The error model of the whole repository is "flip one bit of one 64-bit
    register value"; this module is the single place where that flip and
    the float/int bit reinterpretations are defined. *)

val flip : int64 -> int -> int64
(** [flip w b] toggles bit [b] (0 = least significant) of [w].
    Requires [0 <= b < 64]. *)

val bits_of_float : float -> int64
(** IEEE-754 reinterpretation of a double. *)

val flip_float : float -> int -> float
(** [flip_float x b] flips bit [b] of the IEEE-754 representation of [x]. *)
