type t =
  | Obj of (string * t) list
  | Arr of t list
  | Int of int
  | Float of float * int
  | Str of string
  | Bool of bool
  | Null

let shortest x =
  let rec go places =
    if places >= 1074 || float_of_string (Printf.sprintf "%.*f" places x) = x then
      Float (x, places)
    else go (places + 1)
  in
  if Float.is_finite x then go 0 else Float (x, 0)

let member key = function Obj members -> List.assoc_opt key members | _ -> None

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 32 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The members of the top two levels go one per line; deeper containers
   print inline, as [{ "key": value, ... }] and [[ a, b ]]. *)
let rec add buf depth v =
  let block opening closing items add_item =
    let pad = if depth < 2 then "\n" ^ String.make (2 * depth) ' ' else " " in
    let indent = if depth < 2 then "  " else "" in
    Buffer.add_char buf opening;
    List.iteri
      (fun i item ->
        Buffer.add_string buf ((if i = 0 then pad else "," ^ pad) ^ indent);
        add_item item)
      items;
    if items <> [] then Buffer.add_string buf pad;
    Buffer.add_char buf closing
  in
  match v with
  | Obj members ->
    block '{' '}' members (fun (key, v) ->
        add_string buf key;
        Buffer.add_string buf ": ";
        add buf (depth + 1) v)
  | Arr items -> block '[' ']' items (add buf (depth + 1))
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float (x, places) when Float.is_finite x -> Printf.bprintf buf "%.*f" places x
  | Float _ | Null -> Buffer.add_string buf "null"
  | Str s -> add_string buf s
  | Bool b -> Buffer.add_string buf (string_of_bool b)

let to_string v =
  let buf = Buffer.create 1024 in
  add buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

exception Fail of int * string

(* Recursive descent over RFC 8259's grammar; [pos] is the next byte. *)
let parse text =
  let len = String.length text and pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let at c = !pos < len && text.[!pos] = c in
  let skip c = at c && (incr pos; true) in
  let expect c = if not (skip c) then fail (Printf.sprintf "expected '%c'" c) in
  let peek () = if !pos < len then text.[!pos] else fail "unexpected end of input" in
  let rec ws () = if skip ' ' || skip '\t' || skip '\n' || skip '\r' then ws () in
  let digits () =
    let start = !pos in
    while !pos < len && text.[!pos] >= '0' && text.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected a digit";
    !pos - start
  in
  let number () =
    let start = !pos in
    ignore (skip '-');
    if not (skip '0') then ignore (digits ());
    let places = if skip '.' then Some (digits ()) else None in
    let exponent = skip 'e' || skip 'E' in
    if exponent && not (skip '+') then ignore (skip '-');
    if exponent then ignore (digits ());
    let literal = String.sub text start (!pos - start) in
    let x = float_of_string literal in
    if not (Float.is_finite x) then fail "number out of range";
    match (places, exponent, int_of_string_opt literal) with
    | None, false, Some i -> Int i
    | Some places, false, _ -> Float (x, places)
    | _ -> shortest x
  in
  let hex4 () =
    let hex = String.sub text !pos (min 4 (len - !pos)) in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if String.length hex < 4 || not (String.for_all is_hex hex) then fail "invalid \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  (* A \u escape, joined with the low half that must follow a high
     surrogate. *)
  let uchar () =
    let u = hex4 () in
    let u =
      if u land 0xFC00 = 0xD800 && skip '\\' && skip 'u' then
        let low = hex4 () in
        if low land 0xFC00 = 0xDC00 then 0x10000 + ((u - 0xD800) lsl 10) + low - 0xDC00
        else fail "unpaired surrogate"
      else u
    in
    if Uchar.is_valid u then Uchar.of_int u else fail "unpaired surrogate"
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let next () =
      let c = peek () in
      incr pos;
      c
    in
    let rec go () =
      if Char.code (peek ()) < 0x20 then fail "control character in string";
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (match String.index_opt "\"\\/bfnrtu" (next ()) with
        | Some 8 -> Buffer.add_utf_8_uchar buf (uchar ())
        | Some i -> Buffer.add_char buf "\"\\/\b\012\n\r\t".[i]
        | None -> fail "invalid escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let word w v =
    if String.sub text !pos (min (String.length w) (len - !pos)) <> w then
      fail "invalid literal";
    pos := !pos + String.length w;
    v
  in
  let items opening closing item =
    expect opening;
    ws ();
    if skip closing then []
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        if skip ',' then go acc
        else if skip closing then List.rev acc
        else fail (Printf.sprintf "expected ',' or '%c'" closing)
      in
      go []
  in
  (* [depth] bounds the recursion, so a hostile file cannot exhaust the
     stack. *)
  let rec value depth =
    if depth > 512 then fail "nesting deeper than 512";
    ws ();
    match peek () with
    | '{' ->
      Obj
        (items '{' '}' (fun () ->
             ws ();
             let key = string () in
             ws ();
             expect ':';
             (key, value (depth + 1))))
    | '[' -> Arr (items '[' ']' (fun () -> value (depth + 1)))
    | '"' -> Str (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  let rec check_utf_8 i =
    if i < len then begin
      let d = String.get_utf_8_uchar text i in
      if not (Uchar.utf_decode_is_valid d) then raise (Fail (i, "invalid UTF-8"));
      check_utf_8 (i + Uchar.utf_decode_length d)
    end
  in
  match
    check_utf_8 0;
    let v = value 0 in
    ws ();
    if !pos < len then fail "trailing bytes after the value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)
