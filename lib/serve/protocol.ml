module Wire = Fastflip.Wire
module Hashing = Ff_support.Hashing
module Fault_model = Ff_inject.Fault_model

type query = {
  q_target : float;
  q_bits : int list;
  q_samples : int;
  q_epsilon : float;
  q_prove : bool;
  q_model : Fault_model.t;
}

let default_query =
  {
    q_target = 0.9;
    q_bits = [];
    q_samples = 200;
    q_epsilon = 0.0;
    q_prove = true;
    q_model = Fault_model.default;
  }

type view = {
  data : string;
  pos : int;
  len : int;
}

let view_of_string s = { data = s; pos = 0; len = String.length s }
let string_of_view v = String.sub v.data v.pos v.len

type 'source message =
  | Ping
  | Analyze of {
      source : 'source;
      query : query;
    }
  | Stats
  | Shutdown

type request = string message

let map_source f = function
  | Ping -> Ping
  | Analyze { source; query } -> Analyze { source = f source; query }
  | Stats -> Stats
  | Shutdown -> Shutdown

type response =
  | Pong
  | Report of string
  | Stats_json of string
  | Error of string
  | Bye

let max_payload = 16 * 1024 * 1024

(* --- value codecs ----------------------------------------------------------- *)

let w_query buf q =
  Wire.w_float buf q.q_target;
  Wire.w_list buf Wire.w_int q.q_bits;
  Wire.w_int buf q.q_samples;
  Wire.w_float buf q.q_epsilon;
  Wire.w_int buf (if q.q_prove then 1 else 0);
  Wire.w_string buf (Fault_model.to_string q.q_model)

let r_bool c what =
  match Wire.r_int c with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Wire.Corrupt ("bad boolean for " ^ what))

let r_query c =
  let q_target = Wire.r_float c in
  let q_bits = Wire.r_list c Wire.r_int "query bits" in
  let q_samples = Wire.r_int c in
  let q_epsilon = Wire.r_float c in
  let q_prove = r_bool c "query prove flag" in
  let q_model =
    match Fault_model.of_string (Wire.r_string c "query fault model") with
    | Ok m -> m
    | Error msg -> raise (Wire.Corrupt ("bad fault model: " ^ msg))
  in
  if not (Float.is_finite q_target) then raise (Wire.Corrupt "non-finite target");
  { q_target; q_bits; q_samples; q_epsilon; q_prove; q_model }

let encode_request req =
  let buf = Buffer.create 256 in
  (match req with
  | Ping -> Wire.w_int buf 0
  | Analyze { source; query } ->
    Wire.w_int buf 1;
    Wire.w_string buf source;
    w_query buf query
  | Stats -> Wire.w_int buf 2
  | Shutdown -> Wire.w_int buf 3);
  Buffer.contents buf

(* NB [Error] below the response type refers to its constructor; results
   spell Stdlib.Error explicitly. *)
let finish c v =
  if Wire.at_end c then Ok v else Stdlib.Error "trailing bytes after message"

(* The one request decoder: an Analyze source comes back as a view into
   [data], which [decode_request] then copies. *)
let decode_view data ~len =
  let c = Wire.cursor ~len data in
  try
    match Wire.r_int c with
    | 0 -> finish c Ping
    | 1 ->
      let pos, n = Wire.r_span c "program source" in
      let query = r_query c in
      finish c (Analyze { source = { data; pos; len = n }; query })
    | 2 -> finish c Stats
    | 3 -> finish c Shutdown
    | tag -> Stdlib.Error (Printf.sprintf "unknown request tag %d" tag)
  with Wire.Corrupt msg -> Stdlib.Error msg

let decode_request data =
  Result.map (map_source string_of_view) (decode_view data ~len:(String.length data))

(* A response payload is its tag, then, for the text-carrying ones, the
   length-prefixed text. *)
let response_parts = function
  | Pong -> (0, None)
  | Report text -> (1, Some text)
  | Stats_json text -> (2, Some text)
  | Error text -> (3, Some text)
  | Bye -> (4, None)

let encode_response resp =
  let buf = Buffer.create 256 in
  let tag, text = response_parts resp in
  Wire.w_int buf tag;
  Option.iter (Wire.w_string buf) text;
  Buffer.contents buf

let decode_response data =
  let c = Wire.cursor data in
  try
    match Wire.r_int c with
    | 0 -> finish c Pong
    | 1 -> finish c (Report (Wire.r_string c "report text"))
    | 2 -> finish c (Stats_json (Wire.r_string c "stats json"))
    | 3 -> finish c (Error (Wire.r_string c "error text"))
    | 4 -> finish c Bye
    | tag -> Stdlib.Error (Printf.sprintf "unknown response tag %d" tag)
  with Wire.Corrupt msg -> Stdlib.Error msg

(* --- framed socket transport ------------------------------------------------ *)

type recv_result =
  | Frame of string
  | Closed
  | Malformed of string

let rec write_all fd s pos len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (pos + n) (len - n)
  end

let send_request fd req =
  let framed = Wire.frame (encode_request req) in
  write_all fd framed 0 (String.length framed)

(* The frame of [encode_response resp], written without building it: one
   small block holds the header and the payload's tag and text length,
   then the text goes out straight from the response. The payload CRC
   runs over that prefix and continues over the text. *)
let send_response fd resp =
  let tag, text = response_parts resp in
  let text_len = match text with Some t -> String.length t | None -> 0 in
  let hs = Wire.frame_header_size in
  let head = Bytes.create (hs + if text = None then 8 else 16) in
  let prefix_len = Bytes.length head - hs in
  Bytes.set_int64_le head hs (Int64.of_int tag);
  if text <> None then Bytes.set_int64_le head (hs + 8) (Int64.of_int text_len);
  let crc = Hashing.crc32 ~pos:hs (Bytes.unsafe_to_string head) in
  let crc = match text with Some t -> Hashing.crc32 ~init:crc t | None -> crc in
  Wire.write_frame_header head ~pos:0 ~len:(prefix_len + text_len) ~crc;
  write_all fd (Bytes.unsafe_to_string head) 0 (Bytes.length head);
  Option.iter (fun t -> write_all fd t 0 text_len) text

(* A connection's receive side: the header and payload buffers are reused
   by every frame, so a steady stream of requests allocates nothing large.
   The payload buffer grows to the largest frame seen, up to max_payload. *)
type receiver = {
  fd : Unix.file_descr;
  header : bytes;
  mutable payload : bytes;
}

let receiver fd =
  { fd; header = Bytes.create Wire.frame_header_size; payload = Bytes.empty }

(* Read exactly [len] bytes into [buf]. [`Eof n] reports how many arrived
   first. *)
let read_exact fd buf len =
  let rec go pos =
    if pos = len then `Exact
    else
      match Unix.read fd buf pos (len - pos) with
      | 0 -> `Eof pos
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      (* A peer that resets the connection (e.g. closes with unread data
         still buffered) is an EOF for framing purposes, not a crash. *)
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof pos
  in
  go 0

(* One frame into [r.payload]; [Ok len] is the validated payload length.
   Wire.read_frames wants the whole input in memory, so a socket checks
   the header with Wire.check_frame_header, then reads and checks the
   payload. *)
let recv_payload r =
  match read_exact r.fd r.header Wire.frame_header_size with
  | `Eof 0 -> Stdlib.Error `Closed
  | `Eof _ -> Stdlib.Error (`Malformed "EOF inside frame header")
  | `Exact -> (
    match
      Wire.check_frame_header (Bytes.unsafe_to_string r.header) ~pos:0
        ~max_len:max_payload
    with
    | Stdlib.Error msg -> Stdlib.Error (`Malformed msg)
    | Ok (len, crc) -> (
      if Bytes.length r.payload < len then
        r.payload <-
          Bytes.create (min max_payload (max len (2 * Bytes.length r.payload)));
      match read_exact r.fd r.payload len with
      | `Eof _ -> Stdlib.Error (`Malformed "EOF inside frame payload")
      | `Exact ->
        if Hashing.crc32 ~len (Bytes.unsafe_to_string r.payload) <> crc then
          Stdlib.Error (`Malformed "frame payload CRC mismatch")
        else Ok len))

let recv_frame fd =
  let r = receiver fd in
  match recv_payload r with
  (* A fresh receiver grows its buffer to exactly [len], and nothing
     else holds it: hand it over without a copy. *)
  | Ok len when Bytes.length r.payload = len -> Frame (Bytes.unsafe_to_string r.payload)
  | Ok len -> Frame (Bytes.sub_string r.payload 0 len)
  | Stdlib.Error `Closed -> Closed
  | Stdlib.Error (`Malformed msg) -> Malformed msg

let recv_view r =
  match recv_payload r with
  | Ok len -> (
    match decode_view (Bytes.unsafe_to_string r.payload) ~len with
    | Ok msg -> Ok msg
    | Stdlib.Error msg -> Stdlib.Error (`Malformed msg))
  | Stdlib.Error _ as e -> e

let recv_response fd =
  match recv_frame fd with
  | Frame payload -> (
    match decode_response payload with
    | Ok msg -> Ok msg
    | Stdlib.Error msg -> Stdlib.Error (`Malformed msg))
  | Closed -> Stdlib.Error `Closed
  | Malformed msg -> Stdlib.Error (`Malformed msg)
