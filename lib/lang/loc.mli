(** Source locations for diagnostics. *)

type t = {
  line : int;  (** 1-based *)
  col : int;   (** 1-based *)
}

val pp : Format.formatter -> t -> unit
(** Renders as [line:col]. *)
