(** One-stop compilation pipeline: source text → validated MiniVM program.

    [compile] runs lexing, parsing, typechecking, lowering, optimization
    (unless disabled), and IR validation, reporting the first diagnostic
    with its source location. *)

type error = {
  stage : string;  (** "lex" | "parse" | "typecheck" | "validate" *)
  loc : Loc.t option;
  message : string;
}

val compile : ?optimize:bool -> string -> (Ff_ir.Program.t, error) result
(** [compile src] builds the program. [optimize] defaults to [true].
    Timed as the telemetry span [frontend.compile]. *)

val compile_exn : ?optimize:bool -> string -> Ff_ir.Program.t
(** Like {!compile} but raises [Failure] with a rendered diagnostic; for
    benchmark sources that are known-good. *)

val pp_error : Format.formatter -> error -> unit
