(** The one JSON string escaper: the telemetry export, the security
    findings and the bench's BENCH_*.json files all write strings
    through it. *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string: double quote and backslash are
    backslashed, newline, tab and carriage return use their short
    escapes, other bytes below 0x20 become [\u00XX], and every other
    byte (UTF-8 included) is copied as it is. *)

val quote : string -> string
(** [add_string] into a fresh string. *)
