(** Plain-text table rendering for the experiment harness.

    The benchmark executable regenerates the paper's tables as aligned
    monospace tables; this module does the layout. *)

type align = Left | Right | Center

type t
(** A table under construction. *)

val create : ?title:string -> (string * align) list -> t
(** [create cols] starts a table whose header row is the column names. *)

val add_row : t -> string list -> unit
(** Append a data row. Raises [Invalid_argument] if the arity differs
    from the header. *)

val render : t -> string
(** Lay out the table with box-drawing rules and aligned cells. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
