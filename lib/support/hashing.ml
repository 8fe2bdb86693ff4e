type t = { mutable acc : int64 }

let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let create () = { acc = offset_basis }

(* Every feeder runs its bytes through a local accumulator and stores it
   once: a store into [t.acc] boxes an int64, a local [ref] does not. *)
let add_int64 t v =
  let acc = ref t.acc in
  for i = 0 to 7 do
    let b = Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL in
    acc := Int64.mul (Int64.logxor !acc b) prime
  done;
  t.acc <- !acc

let add_int t v = add_int64 t (Int64.of_int v)
let add_float t v = add_int64 t (Int64.bits_of_float v)

let add_substring t s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Hashing.add_substring";
  add_int t len;
  let acc = ref t.acc in
  for i = pos to pos + len - 1 do
    acc :=
      Int64.mul
        (Int64.logxor !acc (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  t.acc <- !acc

let add_string t s = add_substring t s 0 (String.length s)

let value t = t.acc

let of_string s =
  let t = create () in
  add_string t s;
  value t

let combine a b =
  let t = create () in
  add_int64 t a;
  add_int64 t b;
  value t

(* --- CRC-32 (IEEE 802.3, reflected) ---------------------------------------- *)

(* Built at module initialisation, not on first use: a [lazy] forced by
   two domains at once raises [CamlinternalLazy.Undefined] in OCaml 5. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 ?(init = 0) ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Hashing.crc32";
  let c = ref (init lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
