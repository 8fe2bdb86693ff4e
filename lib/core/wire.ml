module Site = Ff_inject.Site
module Eqclass = Ff_inject.Eqclass
module Outcome = Ff_inject.Outcome
module Campaign = Ff_inject.Campaign
module Sensitivity = Ff_sensitivity.Sensitivity
module Hashing = Ff_support.Hashing

(* --- primitive writers ------------------------------------------------------ *)

(* Eight little-endian bytes each. [Buffer.add_int64_le] is inlined
   here, so the int64 a call converts to stays unboxed. *)
let w_int64 buf v = Buffer.add_int64_le buf v
let w_int buf v = Buffer.add_int64_le buf (Int64.of_int v)
let w_float buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

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
  let v = String.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  v

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

(* --- varints ----------------------------------------------------------------- *)

(* Unsigned LEB128 over the 63-bit two's-complement image of an int, so
   every int round-trips (a negative one costs 9 bytes). *)
let rec w_uvar buf v =
  if v land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (v land 0x7f lor 0x80));
    w_uvar buf (v lsr 7)
  end

let rec r_uvar_from c acc shift =
  if c.pos >= c.limit then raise (Corrupt "truncated varint");
  let b = Char.code (String.unsafe_get c.data c.pos) in
  c.pos <- c.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc
  else if shift >= 56 then raise (Corrupt "overlong varint")
  else r_uvar_from c acc (shift + 7)

let r_uvar c = r_uvar_from c 0 0

(* Zigzag: small negative deltas stay small. *)
let w_svar buf v = w_uvar buf ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

let r_svar c =
  let u = r_uvar c in
  (u lsr 1) lxor -(u land 1)

(* An element count whose elements take at least [unit] bytes each:
   bounded by the bytes left, so a corrupt count cannot allocate more
   than the payload could hold. *)
let r_count c ~unit what =
  let n = r_uvar c in
  if n < 0 || n > (c.limit - c.pos) / unit then
    raise (Corrupt ("implausible count for " ^ what));
  n

let w_uvars buf arr =
  w_uvar buf (Array.length arr);
  Array.iter (w_uvar buf) arr

let r_uvars c what =
  let n = r_count c ~unit:1 what in
  Array.init n (fun _ -> r_uvar c)

let w_floats buf arr =
  w_uvar buf (Array.length arr);
  for i = 0 to Array.length arr - 1 do
    w_float buf arr.(i)
  done

let r_floats c what =
  let n = r_count c ~unit:8 what in
  Array.init n (fun _ -> r_float c)

(* --- domain codecs ---------------------------------------------------------- *)

let detected_code = function
  | Outcome.Crash -> 0
  | Outcome.Timed_out -> 1
  | Outcome.Misformatted -> 2

let w_detected buf kind = w_int buf (detected_code kind)

let r_detected_tag = function
  | 0 -> Outcome.Crash
  | 1 -> Outcome.Timed_out
  | 2 -> Outcome.Misformatted
  | _ -> raise (Corrupt "detected tag")

let r_detected c = r_detected_tag (r_int c)

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

let w_key buf (key : Store.key) =
  w_int64 buf key.Store.code_hash;
  w_int64 buf key.Store.input_hash;
  w_int64 buf key.Store.config_hash

let r_key c =
  let code_hash = r_int64 c in
  let input_hash = r_int64 c in
  let config_hash = r_int64 c in
  { Store.code_hash; input_hash; config_hash }

(* --- compact store records -------------------------------------------------- *)

(* A record is written as: key (3 x 8 bytes), the campaign's section
   index, its counters, the classes, then the sensitivity matrix. Every
   int is a varint except key hashes and floats (8 bytes each). The
   section index is written once; members and pilots that sit in it (all
   of them, for a per-section campaign) omit it. A class whose member
   list equals the previous class's list — the other bit classes of its
   (pc, operand) group — writes a one-byte back-reference instead, and
   the reader hands both classes the same array. Equality is decided on
   contents, so the bytes depend only on the record's value. *)

let w_operand buf = function
  | Site.Src i ->
    w_uvar buf 0;
    w_uvar buf i
  | Site.Dst -> w_uvar buf 1
  | Site.Op -> w_uvar buf 2
  | Site.Mem b ->
    w_uvar buf 3;
    w_uvar buf b

let r_operand c =
  match r_uvar c with
  | 0 -> Site.Src (r_uvar c)
  | 1 -> Site.Dst
  | 2 -> Site.Op
  | 3 -> Site.Mem (r_uvar c)
  | _ -> raise (Corrupt "operand tag")

let w_pc buf (pc : Site.pc) =
  w_uvar buf pc.Site.kernel;
  w_uvar buf pc.Site.instr

let r_pc c =
  let kernel = r_uvar c in
  let instr = r_uvar c in
  { Site.kernel; instr }

let same_members (a : (int * int) array) b =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i =
       i < 0
       ||
       let sa, da = a.(i) and sb, db = b.(i) in
       sa = sb && da = db && go (i - 1)
     in
     go (Array.length a - 1)

(* Tag 0: the previous class's list; 1: a list of dynamic indices in the
   record's section; 2: a list of (section, dynamic index) pairs.
   Dynamic indices are in trace order, so their zigzag deltas are small. *)
let w_members buf ~section ~prev members =
  if Array.length members > 0 && same_members members prev then w_uvar buf 0
  else begin
    let n = Array.length members in
    let in_section = ref true in
    for i = 0 to n - 1 do
      if fst members.(i) <> section then in_section := false
    done;
    w_uvar buf (if !in_section then 1 else 2);
    w_uvar buf n;
    let last = ref 0 in
    for i = 0 to n - 1 do
      let s, dyn = members.(i) in
      if not !in_section then w_uvar buf s;
      w_svar buf (dyn - !last);
      last := dyn
    done
  end

let r_members c ~section ~prev =
  let fresh ~unit read_section =
    let n = r_count c ~unit "class members" in
    let last = ref 0 in
    Array.init n (fun _ ->
        let s = read_section () in
        last := !last + r_svar c;
        (s, !last))
  in
  match r_uvar c with
  | 0 when Array.length prev > 0 -> prev
  | 0 -> raise (Corrupt "member back-reference without a previous list")
  | 1 -> fresh ~unit:1 (fun () -> section)
  | 2 -> fresh ~unit:2 (fun () -> r_uvar c)
  | _ -> raise (Corrupt "members tag")

let w_site buf (site : Site.t) =
  w_uvar buf site.Site.section;
  w_uvar buf site.Site.dyn;
  w_pc buf site.Site.pc;
  w_operand buf site.Site.operand;
  w_uvar buf site.Site.bit

let r_site c =
  let section = r_uvar c in
  let dyn = r_uvar c in
  let pc = r_pc c in
  let operand = r_operand c in
  let bit = r_uvar c in
  { Site.section; dyn; pc; operand; bit }

(* The pilot is the group's representative at the class's own pc,
   operand and bit. Tag 0: it lies in the record's section, so only its
   dyn is written; tag 1: a full site. *)
let w_class buf ~section ~prev (cls : Eqclass.t) =
  let g = cls.Eqclass.group in
  w_pc buf g.Eqclass.g_pc;
  w_operand buf g.Eqclass.g_operand;
  w_uvar buf cls.Eqclass.bit;
  w_members buf ~section ~prev g.Eqclass.g_members;
  let rep_section, rep_dyn = g.Eqclass.g_representative in
  if rep_section = section then begin
    w_uvar buf 0;
    w_uvar buf rep_dyn
  end
  else begin
    w_uvar buf 1;
    w_site buf (Eqclass.pilot cls)
  end

(* [prev] is the previous class's group. A class joins it when its
   member list was the back-reference and its pc, operand and pilot
   agree, so the bit classes of a group decode onto one shared group. *)
let r_class c ~section ~(prev : Eqclass.group option) =
  let pc = r_pc c in
  let operand = r_operand c in
  let bit = r_uvar c in
  let prev_members = match prev with Some g -> g.Eqclass.g_members | None -> [||] in
  let members = r_members c ~section ~prev:prev_members in
  let representative =
    match r_uvar c with
    | 0 -> (section, r_uvar c)
    | 1 ->
      let p = r_site c in
      if p.Site.pc <> pc || p.Site.operand <> operand || p.Site.bit <> bit then
        raise (Corrupt "pilot is not the class's own site");
      (p.Site.section, p.Site.dyn)
    | _ -> raise (Corrupt "pilot tag")
  in
  let group =
    match prev with
    | Some g
      when g.Eqclass.g_members == members
           && g.Eqclass.g_pc = pc
           && g.Eqclass.g_operand = operand
           && g.Eqclass.g_representative = representative ->
      g
    | _ ->
      {
        Eqclass.g_pc = pc;
        g_operand = operand;
        g_members = members;
        g_representative = representative;
      }
  in
  { Eqclass.group; bit }

(* {!w_section_outcome} with varint tags and buffer indices. *)
let w_outcome buf = function
  | Outcome.S_detected kind ->
    w_uvar buf 0;
    w_uvar buf (detected_code kind)
  | Outcome.S_sdc magnitudes ->
    w_uvar buf 1;
    w_uvar buf (Array.length magnitudes);
    for i = 0 to Array.length magnitudes - 1 do
      let idx, m = magnitudes.(i) in
      w_uvar buf idx;
      w_float buf m
    done

let r_outcome c =
  match r_uvar c with
  | 0 -> Outcome.S_detected (r_detected_tag (r_uvar c))
  | 1 ->
    let n = r_count c ~unit:9 "magnitudes" in
    Outcome.S_sdc
      (Array.init n (fun _ ->
           let idx = r_uvar c in
           let m = r_float c in
           (idx, m)))
  | _ -> raise (Corrupt "outcome tag")

let w_record buf (r : Store.section_record) =
  let camp = r.Store.rec_campaign and sens = r.Store.rec_sensitivity in
  let section = camp.Campaign.section_index in
  w_key buf r.Store.rec_key;
  w_uvar buf section;
  w_uvar buf camp.Campaign.s_work;
  w_uvar buf camp.Campaign.s_injections;
  w_uvar buf camp.Campaign.s_sites;
  w_uvar buf r.Store.rec_work;
  w_uvar buf (Array.length camp.Campaign.s_classes);
  let prev = ref [||] in
  Array.iter
    (fun ((cls : Eqclass.t), outcome) ->
      w_class buf ~section ~prev:!prev cls;
      w_outcome buf outcome;
      prev := Eqclass.members cls)
    camp.Campaign.s_classes;
  w_svar buf (sens.Sensitivity.section_index - section);
  w_uvars buf sens.Sensitivity.input_buffers;
  w_uvars buf sens.Sensitivity.output_buffers;
  w_uvar buf (Array.length sens.Sensitivity.k);
  Array.iter (w_floats buf) sens.Sensitivity.k;
  w_uvar buf sens.Sensitivity.samples_used;
  w_uvar buf sens.Sensitivity.work

let r_record c =
  let rec_key = r_key c in
  let section = r_uvar c in
  let s_work = r_uvar c in
  let s_injections = r_uvar c in
  let s_sites = r_uvar c in
  let rec_work = r_uvar c in
  let n = r_count c ~unit:1 "classes" in
  let prev = ref None in
  let intern = Outcome.section_interner () in
  let s_classes =
    Array.init n (fun _ ->
        let cls = r_class c ~section ~prev:!prev in
        let outcome = intern (r_outcome c) in
        prev := Some cls.Eqclass.group;
        (cls, outcome))
  in
  let section_index = section + r_svar c in
  let input_buffers = r_uvars c "inputs" in
  let output_buffers = r_uvars c "outputs" in
  let k =
    let rows = r_count c ~unit:1 "k" in
    Array.init rows (fun _ -> r_floats c "k row")
  in
  let samples_used = r_uvar c in
  let work = r_uvar c in
  {
    Store.rec_key;
    rec_campaign =
      { Campaign.section_index = section; s_classes; s_work; s_injections; s_sites };
    rec_sensitivity =
      { Sensitivity.section_index; input_buffers; output_buffers; k; samples_used; work };
    rec_work;
  }

(* --- CRC frames ------------------------------------------------------------- *)

(* Each frame is marker ∥ length ∥ crc32(payload) ∥ crc32(header) ∥ payload.
   The header carries its own CRC so that a corrupted length field cannot
   send the reader to a bogus offset: a reader that fails the header check
   rescans for the next marker instead, losing only the damaged frame. *)

let frame_marker = "FRC2"
let frame_header_size = 4 + 8 + 8 + 8

let write_frame_header b ~pos ~len ~crc =
  Bytes.blit_string frame_marker 0 b pos 4;
  Bytes.set_int64_le b (pos + 4) (Int64.of_int len);
  Bytes.set_int64_le b (pos + 12) (Int64.of_int crc);
  Bytes.set_int64_le b (pos + 20)
    (Int64.of_int (Hashing.crc32 ~pos ~len:20 (Bytes.unsafe_to_string b)))

let marker_at data p =
  p + 4 <= String.length data
  && Char.equal data.[p] frame_marker.[0]
  && Char.equal data.[p + 1] frame_marker.[1]
  && Char.equal data.[p + 2] frame_marker.[2]
  && Char.equal data.[p + 3] frame_marker.[3]

let check_frame_header data ~pos ~max_len =
  let int_at p = Int64.to_int (String.get_int64_le data p) in
  if pos + frame_header_size > String.length data then Error "truncated frame header"
  else if not (marker_at data pos) then Error "bad frame marker"
  else if Hashing.crc32 ~pos ~len:20 data <> int_at (pos + 20) then
    Error "frame header CRC mismatch"
  else
    let len = String.get_int64_le data (pos + 4) in
    if Int64.compare len 0L < 0 || Int64.compare len (Int64.of_int max_len) > 0 then
      Error "frame length out of bounds"
    else Ok (Int64.to_int len, int_at (pos + 12))

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (frame_header_size + len) in
  write_frame_header b ~pos:0 ~len ~crc:(Hashing.crc32 payload);
  Bytes.blit_string payload 0 b frame_header_size len;
  Bytes.unsafe_to_string b

let add_frame buf payload = Buffer.add_string buf (frame payload)

let read_frames ?(pos = 0) data =
  let len = String.length data in
  let frames = ref [] in
  let skipped = ref 0 in
  (* [in_skip] collapses a whole corrupt region (bad header + every false
     marker candidate inside it) into one skip event. A header is trusted
     only if its length fits in the remaining bytes. *)
  let rec scan p ~in_skip =
    if p < len then
      match check_frame_header data ~pos:p ~max_len:(len - p - frame_header_size) with
      | Ok (l, crc) ->
        let payload = String.sub data (p + frame_header_size) l in
        if Hashing.crc32 payload = crc then frames := payload :: !frames
        else incr skipped;
        scan (p + frame_header_size + l) ~in_skip:false
      | Error _ -> (
        if not in_skip then incr skipped;
        let rec find q =
          if q + 4 > len then None else if marker_at data q then Some q else find (q + 1)
        in
        match find (p + 1) with
        | Some q -> scan q ~in_skip:true
        | None -> ())
  in
  scan pos ~in_skip:false;
  (List.rev !frames, !skipped)
