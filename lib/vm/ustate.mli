(** Unboxed program state: bit-carrying word arrays.

    The boxed state ([Value.t array array]) allocates one box per element
    and forces a constructor match per access. This module carries the
    same information as raw 64-bit words in a float64 bigarray — also
    readable as int64 through {!as_bits}, a free reinterpretation of the
    same memory — plus one tag byte per element for the dynamic int/float
    distinction the trap semantics need. Bigarray access with a
    statically known kind compiles to a direct typed load/store, so
    neither view pays a conversion call. All equality and distance
    predicates mirror {!Ff_ir.Value} bit for bit. *)

type words = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type bits = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external as_bits : words -> bits = "%identity"
(** The same memory viewed as int64 — no copy, no conversion. Sound
    because both kinds are plain 8-byte cells and every access site
    fixes its kind statically. *)

val make_words : int -> words
(** A fresh zero-filled word array. *)

external dim : words -> int = "%caml_ba_dim_1"

val tag_int : char
val tag_float : char

type t = {
  words : words array;   (** per program buffer: raw 64-bit words *)
  tags : Bytes.t array;  (** per program buffer: element type tags *)
}

val word_of_value : Ff_ir.Value.t -> float
val tag_of_value : Ff_ir.Value.t -> char
val value_of : float -> char -> Ff_ir.Value.t

val of_values : Ff_ir.Value.t array -> words * Bytes.t
(** Convert one boxed buffer. *)

val of_state : Ff_ir.Value.t array array -> t
(** Convert a full boxed program state (the golden run's initial
    buffers). *)

val create_like : t -> t
(** Allocate a zeroed state with the same shape (the reusable scratch). *)

val blit : src:t -> dst:t -> unit
(** Copy contents between same-shape states without allocating — the
    per-replay reset of a scratch workspace. *)

val blit_buffers : src:t -> dst:t -> int array -> unit
(** [blit_buffers ~src ~dst idx] copies only the buffers listed in
    [idx] — the partial reset for a section replay, which can only ever
    read or write the buffers bound to its slots. *)

val values : t -> int -> Ff_ir.Value.t array
(** [values t i] is a fresh boxed copy of buffer [i] — what a caller
    keeps of a scratch state that the next run will overwrite. *)

val scalars_of_values : Ff_ir.Value.t list -> words * Bytes.t
(** Scalar arguments in register-staging form. *)

val buffer_distance : ?stop_at:float -> t -> int -> t -> int -> float
(** [buffer_distance a i b j] is the largest element-wise |Δ| between
    buffer [i] of [a] and buffer [j] of [b], under
    {!Ff_ir.Value.abs_diff} semantics: [Invalid_argument] on a reached
    element whose dynamic types disagree. With [stop_at], the scan stops
    as soon as the running worst exceeds it — callers that only test
    [distance > threshold] (e.g. the side-effect scan) avoid reading the
    rest of the buffer; the early-exited value is only guaranteed to be
    on the same side of [stop_at] as the true maximum. The test oracle
    holds it to a boxed reference scan bit for bit. *)

val elem_distance : char -> int64 -> int64 -> float
(** [elem_distance tag g a] is |g − a| for two elements of type [tag]
    given by their bits, as {!Ff_ir.Value.abs_diff} computes it: the
    element distance {!buffer_distance} takes the largest of. *)

val has_nonfinite : t -> int -> bool
(** Whether buffer [i] holds a non-finite float (ints are always finite). *)

val buffer_equal : t -> int -> t -> int -> bool
(** [buffer_equal a i b j]: buffer [i] of [a] and buffer [j] of [b] hold
    the same tags and the same bits ({!Ff_ir.Value.equal} per element). *)

val equal : t -> t -> bool
(** Bit-exact full-state equality (the early-convergence test):
    {!buffer_equal} on every buffer. *)
