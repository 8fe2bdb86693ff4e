(** The one JSON value, printer and parser: every export ([--metrics],
    [security --json], [protect --pareto], serve [Stats], the bench's
    BENCH_*.json) is a [t] printed by {!to_string}, and every reader
    parses with {!parse}. *)

type t =
  | Obj of (string * t) list  (** members in print order *)
  | Arr of t list
  | Int of int
  | Float of float * int  (** the value and the decimal places it prints with *)
  | Str of string  (** bytes, copied as they are (UTF-8 included) *)
  | Bool of bool
  | Null

val shortest : float -> t
(** [x] with the fewest decimal places that read back as [x]. *)

val member : string -> t -> t option
(** The first member named [key] of an object; [None] for anything else. *)

val to_string : t -> string
(** The document, ending in a newline. Members and elements of the top
    two levels go one per line with a two-space indent; deeper
    containers print inline as [{ "k": v }] and [[ a, b ]]; empty ones
    as [{}] and [[]]. A non-finite [Float] prints as [null]. *)

val parse : string -> (t, string) result
(** Strict RFC 8259: one value with optional surrounding whitespace,
    valid UTF-8, no trailing bytes, at most 512 levels of nesting. A
    number with neither fraction nor exponent that fits an [int] reads
    as [Int], one with a fraction and no exponent as [Float] with its
    written places, any other as {!shortest}. [parse (to_string v)] gives [v] back when
    every [Float (x, p)] has [p >= 1] and [x] is the double its printed
    digits read back as. The error names the byte offset, as
    ["byte 17: expected ':'"]. *)
