(** Growable record of the dynamic instruction stream of one section run.

    Entry [i] is the static instruction index executed as the i-th dynamic
    instruction; error sites are addressed as (dynamic index, operand, bit)
    against this trace. *)

type t

val create : unit -> t

val add : t -> int -> unit

val to_array : t -> int array
