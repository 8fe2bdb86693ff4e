(** The serve wire protocol: CRC-framed, length-prefixed request/response
    messages over a Unix domain socket.

    Framing reuses the store's {!Fastflip.Wire} frame format (marker ∥
    length ∥ crc32(payload) ∥ crc32(header) ∥ payload), read incrementally
    from the socket: the receiver reads the fixed-size header, validates
    the marker and the header's own CRC {e before} trusting the declared
    length, bounds the length by {!max_payload} {e before} allocating, and
    validates the payload CRC before decoding. Any violation is reported
    as {!Malformed} — the stream can no longer be trusted, so the one
    connection must be dropped; the daemon itself never crashes and its
    warm state is untouched.

    Message payloads use the {!Fastflip.Wire} value codecs; decoders
    validate tags and lengths and return [Error] rather than raising, and
    reject trailing bytes.

    The daemon's side moves no report or source through an intermediate
    copy: each connection reads frames into one reused buffer
    ({!receiver}), an [Analyze] source is decoded as a {!view} of it, and
    {!send_response} writes the response text in place. *)

type query = {
  q_target : float;   (** knapsack target v_trgt in [0,1] *)
  q_bits : int list;  (** injection bit positions; [] = the default subset *)
  q_samples : int;    (** sensitivity samples per input *)
  q_epsilon : float;  (** SDC-Bad threshold ε *)
  q_prove : bool;     (** static outcome prover pre-pass on/off *)
  q_model : Ff_inject.Fault_model.t;
      (** fault model for the campaign; encoded on the wire in its
          {!Ff_inject.Fault_model.to_string} form and re-parsed (and so
          validated) on decode *)
}

val default_query : query
(** The one-shot CLI's defaults: target 0.9, default bits, 200 samples,
    ε = 0, prover on, single-bit register flips. *)

type view = {
  data : string;
  pos : int;
  len : int;
}
(** The [len] bytes of [data] from [pos]: a program source as the daemon
    receives it, in place in its connection's receive buffer. *)

val view_of_string : string -> view
val string_of_view : view -> string
(** A copy of the viewed bytes. *)

type 'source message =
  | Ping
  | Analyze of {
      source : 'source;  (** kernel-language program text *)
      query : query;
    }
  | Stats  (** telemetry snapshot as JSON *)
  | Shutdown

type request = string message

val map_source : ('a -> 'b) -> 'a message -> 'b message
(** Convert an [Analyze] request's source; other requests carry none. *)

type response =
  | Pong
  | Report of string      (** byte-identical to the one-shot CLI's stdout *)
  | Stats_json of string
  | Error of string       (** per-request failure (compile error, trap) *)
  | Bye                   (** acknowledged [Shutdown] *)

val max_payload : int
(** Upper bound on a single frame's payload (16 MiB) — an adversarial or
    corrupt length prefix can never cause a large allocation. *)

(** {1 Pure codecs} (fuzzable without a socket) *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(** {1 Framed socket transport} *)

type recv_result =
  | Frame of string        (** one validated payload *)
  | Closed                 (** clean EOF at a frame boundary *)
  | Malformed of string    (** bad marker/CRC/length or mid-frame EOF *)

val recv_frame : Unix.file_descr -> recv_result
(** Read exactly one frame. Never raises on malformed input; never
    allocates more than {!max_payload} + header. *)

val send_request : Unix.file_descr -> request -> unit
(** Frame and write the whole request ([Unix_error] on a dead peer). *)

val send_response : Unix.file_descr -> response -> unit
(** Writes exactly the bytes of [Wire.frame (encode_response r)], but
    without building them: the header and the payload's tag and length
    go out as one small block, then the response text is written in
    place, so a report costs no copy. *)

type receiver
(** A connection's receive buffers, reused by every frame it reads: a
    steady stream of requests on one connection allocates nothing that
    grows with their size. *)

val receiver : Unix.file_descr -> receiver

val recv_view :
  receiver -> (view message, [ `Closed | `Malformed of string ]) result
(** Read and decode one request. An [Analyze] source is a view into the
    receiver's buffer, valid until the next [recv_view] on it. [`Closed]
    is a clean EOF at a frame boundary; [`Malformed] covers a bad frame
    {e and} a valid frame whose payload fails to decode — in both cases
    the stream can no longer be trusted and the connection must be
    dropped. Frame checks are those of {!recv_frame}. *)

val recv_response :
  Unix.file_descr -> (response, [ `Closed | `Malformed of string ]) result
(** As {!recv_view}, for the client's side. *)
