(** Runtime values of the MiniVM.

    Every architectural register and buffer element holds a 64-bit value,
    either an integer or an IEEE-754 double. Bitflips operate on the 64-bit
    payload and preserve the static type, mirroring flips in x86-64
    general-purpose vs. SSE2 registers in the paper's error model. *)

type scalar_ty = TInt | TFloat

type t = Int of int64 | Float of float

val ty : t -> scalar_ty
(** Static type of a value. *)

val flip_bit : t -> int -> t
(** [flip_bit v b] flips bit [b] of the 64-bit payload, keeping the type. *)

val zero : scalar_ty -> t
(** The all-zero value of a type. *)

val equal : t -> t -> bool
(** Structural equality; floats compare by bit pattern so that NaN = NaN
    and -0. <> 0. (an injected flip that produces a NaN must not look
    masked). *)

val abs_diff : t -> t -> float
(** Magnitude of the difference between two values of the same type:
    [|a - b|] as a float. NaN/infinite differences return [infinity].
    Raises [Invalid_argument] on type mismatch. *)

val is_finite : t -> bool
(** [true] for integers and finite floats. *)

val ty_equal : scalar_ty -> scalar_ty -> bool

val pp_ty : Format.formatter -> scalar_ty -> unit

val to_string : t -> string

val hash_fold : Ff_support.Hashing.t -> t -> unit
(** Feed the value (type tag + payload) to a hash accumulator. *)
