(** The binary codec of the persistent store ({!Persist}): its manifest,
    shard logs and campaign progress log.

    Two layers:

    {ul
    {- {b value codecs}: writers into a [Buffer.t] and cursor-based
       readers for what goes to disk or over the serve socket —
       fixed-width little-endian ints, floats and strings, store keys and
       section outcomes, and the compact varint encoding of full store
       records. Readers validate tags and lengths and raise {!Corrupt}
       rather than producing garbage.}
    {- {b CRC frames}: a self-describing record framing
       ([marker ∥ length ∥ crc32(payload) ∥ crc32(header) ∥ payload]) such
       that {!read_frames} can salvage every intact frame from a file with
       arbitrary truncation or flipped bytes. The header carries its own
       CRC, so a corrupted length cannot derail the reader: it rescans
       for the next marker and loses only the damaged frame.}} *)

(** {1 Writers} *)

val w_int64 : Buffer.t -> int64 -> unit
val w_int : Buffer.t -> int -> unit
val w_float : Buffer.t -> float -> unit
val w_string : Buffer.t -> string -> unit
(** Length-prefixed bytes (used by the serve protocol for program
    sources and rendered reports). *)

val w_array : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit
val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(** {1 Readers} *)

exception Corrupt of string
(** Raised by readers on a tag, length, or bounds violation. Framed
    readers catch it per frame; it never escapes {!Persist.load} or
    {!Persist.open_progress}. *)

type cursor = {
  data : string;
  mutable pos : int;
  limit : int;  (** readers never read at or past this offset *)
}

val cursor : ?pos:int -> ?len:int -> string -> cursor
(** A reader over the [len] bytes of [data] from [pos] (default: to the
    end). Raises [Invalid_argument] on an out-of-range slice. *)

val at_end : cursor -> bool
val r_int64 : cursor -> int64
val r_int : cursor -> int
val r_float : cursor -> float

val r_string : cursor -> string -> string
(** Length-prefixed bytes; the length is bounds-checked against the
    remaining input before any allocation. *)

val r_span : cursor -> string -> int * int
(** As {!r_string}, but returns the bytes' [(offset, length)] in
    [data] instead of copying them. *)

val r_array : cursor -> (cursor -> 'a) -> string -> 'a array
val r_list : cursor -> (cursor -> 'a) -> string -> 'a list

(** {1 Analysis-type codecs} *)

val w_section_outcome : Buffer.t -> Ff_inject.Outcome.section_outcome -> unit
val r_section_outcome : cursor -> Ff_inject.Outcome.section_outcome
(** Fixed-width, as the campaign progress log writes outcomes. *)

val w_key : Buffer.t -> Store.key -> unit
val r_key : cursor -> Store.key

val w_record : Buffer.t -> Store.section_record -> unit
(** The compact store-record encoding of the shard logs: the key hashes
    and floats as 8 bytes, every other int as a LEB128 varint (member
    dynamic indices as zigzag deltas), the campaign's section index once
    per record, and a one-byte back-reference for a class whose member
    list equals the previous class's — the other bit classes of its
    (pc, operand) group. The bytes depend only on the record's value,
    never on which arrays happen to be shared in memory. *)

val r_record : cursor -> Store.section_record
(** Decodes {!w_record}'s bytes. Classes written with a back-reference
    share one [members] array, and the bit classes of a (pc, operand)
    share one {!Ff_inject.Eqclass.group}; bit-equal outcomes of the record
    are one value ({!Ff_inject.Outcome.section_interner}). A pilot written
    in full must be its class's own site (pc, operand and bit), since
    pilots are derived from the group. Every count is bounded by the
    bytes left before anything is allocated; any malformed input raises
    {!Corrupt} and nothing else. *)

(** {1 CRC frames} *)

val frame : string -> string
(** [frame payload] is the framed encoding of [payload]: a 28-byte header
    (marker, payload length, payload CRC-32, header CRC-32) followed by
    the payload bytes. *)

val add_frame : Buffer.t -> string -> unit

val frame_header_size : int
(** 28: the marker ["FRC2"], then as little-endian int64s the payload
    length (at 4), the payload's CRC-32 (at 12) and the CRC-32 of the 20
    bytes before it (at 20). *)

val write_frame_header : Bytes.t -> pos:int -> len:int -> crc:int -> unit
(** Write at [pos] the header of a frame whose payload is [len] bytes
    with CRC-32 [crc] — for writers that frame a payload in place
    instead of building it with {!frame}. *)

val check_frame_header :
  string -> pos:int -> max_len:int -> (int * int, string) result
(** [Ok (len, crc)] when the [frame_header_size] bytes at [pos] are a
    header: the marker, a header CRC that checks out, and a payload
    length in [\[0, max_len\]]; [crc] is the payload CRC-32 it declares.
    [Error] names the first check that fails. *)

val read_frames : ?pos:int -> string -> string list * int
(** [read_frames data ~pos] scans [data] from [pos] and returns every
    payload whose header and payload CRCs validate, in file order, plus
    the number of corrupt regions skipped (a region is a damaged frame or
    a stretch of garbage up to the next intact frame; a cleanly truncated
    tail that removes whole frames leaves no trace here — callers that
    record an expected count, like {!Persist}, detect that themselves).
    Never raises on any input. *)
