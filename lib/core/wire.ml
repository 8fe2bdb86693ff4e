module Site = Ff_inject.Site
module Eqclass = Ff_inject.Eqclass
module Outcome = Ff_inject.Outcome
module Campaign = Ff_inject.Campaign
module Sensitivity = Ff_sensitivity.Sensitivity
module Hashing = Ff_support.Hashing

(* --- primitive writers ------------------------------------------------------ *)

let w_int64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let w_int buf v = w_int64 buf (Int64.of_int v)
let w_float buf v = w_int64 buf (Int64.bits_of_float v)

let w_string buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let w_array buf w_elem arr =
  w_int buf (Array.length arr);
  Array.iter (w_elem buf) arr

let w_list buf w_elem xs =
  w_int buf (List.length xs);
  List.iter (w_elem buf) xs

(* --- primitive readers ------------------------------------------------------ *)

exception Corrupt of string

type cursor = {
  data : string;
  mutable pos : int;
  limit : int;
}

let cursor ?(pos = 0) ?len data =
  let limit = match len with Some len -> pos + len | None -> String.length data in
  if pos < 0 || pos > limit || limit > String.length data then
    invalid_arg "Wire.cursor";
  { data; pos; limit }

let at_end c = c.pos = c.limit

let r_int64 c =
  if c.pos + 8 > c.limit then raise (Corrupt "truncated int64");
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c.data.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  !v

let r_int c = Int64.to_int (r_int64 c)
let r_float c = Int64.float_of_bits (r_int64 c)

let r_length c what =
  let n = r_int c in
  if n < 0 || n > 100_000_000 then raise (Corrupt ("implausible length for " ^ what));
  n

let r_span c what =
  let n = r_int c in
  if n < 0 || n > c.limit - c.pos then
    raise (Corrupt ("implausible byte length for " ^ what));
  let pos = c.pos in
  c.pos <- pos + n;
  (pos, n)

let r_string c what =
  let pos, n = r_span c what in
  String.sub c.data pos n

let r_array c r_elem what =
  let n = r_length c what in
  Array.init n (fun _ -> r_elem c)

let r_list c r_elem what =
  let n = r_length c what in
  List.init n (fun _ -> r_elem c)

(* --- domain codecs ---------------------------------------------------------- *)

let w_pc buf (pc : Site.pc) =
  w_int buf pc.Site.kernel;
  w_int buf pc.Site.instr

let r_pc c =
  let kernel = r_int c in
  let instr = r_int c in
  { Site.kernel; instr }

let w_operand buf = function
  | Site.Src i ->
    w_int buf 0;
    w_int buf i
  | Site.Dst ->
    w_int buf 1;
    w_int buf 0
  | Site.Op ->
    w_int buf 2;
    w_int buf 0
  | Site.Mem b ->
    w_int buf 3;
    w_int buf b

let r_operand c =
  match r_int c with
  | 0 -> Site.Src (r_int c)
  | 1 ->
    ignore (r_int c);
    Site.Dst
  | 2 ->
    ignore (r_int c);
    Site.Op
  | 3 -> Site.Mem (r_int c)
  | _ -> raise (Corrupt "operand tag")

let w_site buf (site : Site.t) =
  w_int buf site.Site.section;
  w_int buf site.Site.dyn;
  w_pc buf site.Site.pc;
  w_operand buf site.Site.operand;
  w_int buf site.Site.bit

let r_site c =
  let section = r_int c in
  let dyn = r_int c in
  let pc = r_pc c in
  let operand = r_operand c in
  let bit = r_int c in
  { Site.section; dyn; pc; operand; bit }

let w_member buf (section, dyn) =
  w_int buf section;
  w_int buf dyn

let r_member c =
  let section = r_int c in
  let dyn = r_int c in
  (section, dyn)

let w_class buf (cls : Eqclass.t) =
  w_pc buf cls.Eqclass.pc;
  w_operand buf cls.Eqclass.operand;
  w_int buf cls.Eqclass.bit;
  w_array buf w_member cls.Eqclass.members;
  w_site buf cls.Eqclass.pilot

let r_class c =
  let pc = r_pc c in
  let operand = r_operand c in
  let bit = r_int c in
  let members = r_array c r_member "class members" in
  let pilot = r_site c in
  { Eqclass.pc; operand; bit; members; pilot }

let w_detected buf = function
  | Outcome.Crash -> w_int buf 0
  | Outcome.Timed_out -> w_int buf 1
  | Outcome.Misformatted -> w_int buf 2

let r_detected c =
  match r_int c with
  | 0 -> Outcome.Crash
  | 1 -> Outcome.Timed_out
  | 2 -> Outcome.Misformatted
  | _ -> raise (Corrupt "detected tag")

let w_magnitude buf (idx, m) =
  w_int buf idx;
  w_float buf m

let r_magnitude c =
  let idx = r_int c in
  let m = r_float c in
  (idx, m)

let w_section_outcome buf = function
  | Outcome.S_detected kind ->
    w_int buf 0;
    w_detected buf kind
  | Outcome.S_sdc magnitudes ->
    w_int buf 1;
    w_array buf w_magnitude magnitudes

let r_section_outcome c =
  match r_int c with
  | 0 -> Outcome.S_detected (r_detected c)
  | 1 -> Outcome.S_sdc (r_array c r_magnitude "magnitudes")
  | _ -> raise (Corrupt "outcome tag")

let w_campaign buf (camp : Campaign.section_result) =
  w_int buf camp.Campaign.section_index;
  w_array buf
    (fun buf (cls, outcome) ->
      w_class buf cls;
      w_section_outcome buf outcome)
    camp.Campaign.s_classes;
  w_int buf camp.Campaign.s_work;
  w_int buf camp.Campaign.s_injections;
  w_int buf camp.Campaign.s_sites

let r_campaign c =
  let section_index = r_int c in
  let s_classes =
    r_array c
      (fun c ->
        let cls = r_class c in
        let outcome = r_section_outcome c in
        (cls, outcome))
      "classes"
  in
  let s_work = r_int c in
  let s_injections = r_int c in
  let s_sites = r_int c in
  { Campaign.section_index; s_classes; s_work; s_injections; s_sites }

let w_sensitivity buf (s : Sensitivity.t) =
  w_int buf s.Sensitivity.section_index;
  w_array buf w_int s.Sensitivity.input_buffers;
  w_array buf w_int s.Sensitivity.output_buffers;
  w_array buf (fun buf row -> w_array buf w_float row) s.Sensitivity.k;
  w_int buf s.Sensitivity.samples_used;
  w_int buf s.Sensitivity.work

let r_sensitivity c =
  let section_index = r_int c in
  let input_buffers = r_array c r_int "inputs" in
  let output_buffers = r_array c r_int "outputs" in
  let k = r_array c (fun c -> r_array c r_float "k row") "k" in
  let samples_used = r_int c in
  let work = r_int c in
  { Sensitivity.section_index; input_buffers; output_buffers; k; samples_used; work }

let w_key buf (key : Store.key) =
  w_int64 buf key.Store.code_hash;
  w_int64 buf key.Store.input_hash;
  w_int64 buf key.Store.config_hash

let r_key c =
  let code_hash = r_int64 c in
  let input_hash = r_int64 c in
  let config_hash = r_int64 c in
  { Store.code_hash; input_hash; config_hash }

let w_record buf (r : Store.section_record) =
  w_key buf r.Store.rec_key;
  w_campaign buf r.Store.rec_campaign;
  w_sensitivity buf r.Store.rec_sensitivity;
  w_int buf r.Store.rec_work

let r_record c =
  let rec_key = r_key c in
  let rec_campaign = r_campaign c in
  let rec_sensitivity = r_sensitivity c in
  let rec_work = r_int c in
  { Store.rec_key; rec_campaign; rec_sensitivity; rec_work }

(* --- CRC frames ------------------------------------------------------------- *)

(* Each frame is marker ∥ length ∥ crc32(payload) ∥ crc32(header) ∥ payload.
   The header carries its own CRC so that a corrupted length field cannot
   send the reader to a bogus offset: a reader that fails the header check
   rescans for the next marker instead, losing only the damaged frame. *)

let frame_marker = "FRC2"
let frame_header_size = 4 + 8 + 8 + 8

let frame payload =
  let buf = Buffer.create (String.length payload + frame_header_size) in
  Buffer.add_string buf frame_marker;
  w_int64 buf (Int64.of_int (String.length payload));
  w_int64 buf (Int64.of_int (Hashing.crc32 payload));
  let head = Buffer.contents buf in
  w_int64 buf (Int64.of_int (Hashing.crc32 head));
  Buffer.add_string buf payload;
  Buffer.contents buf

let add_frame buf payload = Buffer.add_string buf (frame payload)

(* Little-endian int64 at a raw offset, as a (possibly truncated) int. *)
let int_at data pos =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code data.[pos + i]))
  done;
  Int64.to_int !v

let read_frames ?(pos = 0) data =
  let len = String.length data in
  let marker_at p =
    p + 4 <= len
    && Char.equal data.[p] frame_marker.[0]
    && Char.equal data.[p + 1] frame_marker.[1]
    && Char.equal data.[p + 2] frame_marker.[2]
    && Char.equal data.[p + 3] frame_marker.[3]
  in
  (* A header is trusted only if its marker matches, its own CRC checks
     out, and the length it declares fits in the remaining bytes. *)
  let header_ok p =
    p + frame_header_size <= len
    && marker_at p
    && Hashing.crc32 ~pos:p ~len:20 data = int_at data (p + 20)
    &&
    let l = int_at data (p + 4) in
    l >= 0 && l <= len - p - frame_header_size
  in
  let frames = ref [] in
  let skipped = ref 0 in
  (* [in_skip] collapses a whole corrupt region (bad header + every false
     marker candidate inside it) into one skip event. *)
  let rec scan p ~in_skip =
    if p < len then
      if header_ok p then begin
        let l = int_at data (p + 4) in
        let payload = String.sub data (p + frame_header_size) l in
        if Hashing.crc32 payload = int_at data (p + 12) then
          frames := payload :: !frames
        else incr skipped;
        scan (p + frame_header_size + l) ~in_skip:false
      end
      else begin
        if not in_skip then incr skipped;
        let rec find q = if q + 4 > len then None else if marker_at q then Some q else find (q + 1) in
        match find (p + 1) with
        | Some q -> scan q ~in_skip:true
        | None -> ()
      end
  in
  scan pos ~in_skip:false;
  (List.rev !frames, !skipped)
