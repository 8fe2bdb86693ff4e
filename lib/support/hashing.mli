(** Structural content hashing (64-bit FNV-1a).

    Section reuse in the incremental analysis is keyed on hashes of
    compiled section code and of golden input values; this module provides
    the streaming hasher both are built from. *)

type t
(** Mutable hash accumulator. *)

val create : unit -> t
(** Fresh accumulator at the FNV-1a offset basis. *)

val add_int64 : t -> int64 -> unit
(** Feed the 8 bytes of an int64, little-endian. *)

val add_int : t -> int -> unit
(** Feed an OCaml int (as int64). *)

val add_float : t -> float -> unit
(** Feed the IEEE-754 bits of a double. *)

val add_string : t -> string -> unit
(** Feed the bytes of a string, preceded by its length. *)

val add_substring : t -> string -> int -> int -> unit
(** [add_substring t s pos len] feeds [len] bytes of [s] from [pos],
    preceded by [len]: the digest [add_string] gives on
    [String.sub s pos len], without the copy. Raises [Invalid_argument]
    on an out-of-range slice. *)

val value : t -> int64
(** Current digest. *)

val of_string : string -> int64
(** One-shot string hash. *)

val combine : int64 -> int64 -> int64
(** Order-dependent combination of two digests. *)

val crc32 : ?init:int -> ?pos:int -> ?len:int -> string -> int
(** CRC-32 (IEEE 802.3 polynomial, reflected) of [len] bytes of [s]
    starting at [pos] (default: the whole string), as a non-negative int
    in [0, 2^32). [init] continues a CRC across parts:
    [crc32 ~init:(crc32 a) b] is [crc32 (a ^ b)] (default 0, a fresh
    CRC). Safe to call from any domain or thread at any time. Unlike FNV (a speed-oriented digest), CRC-32 detects
    {e every} burst error up to 32 bits, which is what the on-disk store's
    log framing relies on to salvage intact records from
    a corrupted file. Raises [Invalid_argument] on an out-of-range
    [pos]/[len]. *)
