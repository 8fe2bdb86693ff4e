open Ff_ir

(* A Value.t is a box around 64 bits plus one tag bit (int or float).
   The unboxed representation carries the 64 bits in a float64 bigarray
   and the tag in a parallel byte per element. The same memory is also
   readable as an int64 bigarray through [as_bits]: both kinds are plain
   8-byte cells, and ocamlopt compiles bigarray access with a statically
   known kind to a direct typed load/store, so reinterpreting the words
   costs nothing — no [Int64.bits_of_float] C stub on any access. All
   comparisons go through the raw bits, never through float equality, so
   NaN payloads and signed zeros survive bit-exactly. *)

module A1 = Bigarray.Array1

type words = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t
type bits = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

(* Sound because float64 and int64 cells have identical size and layout,
   and every access site fixes its kind statically; the runtime kind flag
   is only consulted by polymorphic-kind operations, which we never use
   on a reinterpreted view. Both are primitives, so a caller in another
   module compiles them inline even under [-opaque]. *)
external as_bits : words -> bits = "%identity"

let make_words n : words =
  let w = A1.create Bigarray.Float64 Bigarray.C_layout n in
  A1.fill w 0.0;
  w

external dim : words -> int = "%caml_ba_dim_1"

let tag_int = '\000'
let tag_float = '\001'

type t = {
  words : words array;
  tags : Bytes.t array;
}

let word_of_value = function
  | Value.Int w -> Int64.float_of_bits w
  | Value.Float x -> x

let tag_of_value = function Value.Int _ -> tag_int | Value.Float _ -> tag_float

let value_of word tag =
  if tag = tag_int then Value.Int (Int64.bits_of_float word) else Value.Float word

let of_values arr =
  let n = Array.length arr in
  let words = make_words n in
  let iw = as_bits words in
  let tags = Bytes.make n tag_int in
  for i = 0 to n - 1 do
    (match arr.(i) with
    | Value.Int w -> A1.unsafe_set iw i w
    | Value.Float x -> A1.unsafe_set words i x);
    Bytes.unsafe_set tags i (tag_of_value arr.(i))
  done;
  (words, tags)

let of_state state =
  let n = Array.length state in
  let words = Array.make n (make_words 0) in
  let tags = Array.make n Bytes.empty in
  for i = 0 to n - 1 do
    let w, t = of_values state.(i) in
    words.(i) <- w;
    tags.(i) <- t
  done;
  { words; tags }

let create_like t =
  {
    words = Array.map (fun w -> make_words (dim w)) t.words;
    tags = Array.map (fun b -> Bytes.make (Bytes.length b) tag_int) t.tags;
  }

let blit ~src ~dst =
  let n = Array.length src.words in
  for i = 0 to n - 1 do
    A1.blit src.words.(i) dst.words.(i);
    Bytes.blit src.tags.(i) 0 dst.tags.(i) 0 (Bytes.length src.tags.(i))
  done

let blit_buffers ~src ~dst idx =
  let n = Array.length idx in
  for k = 0 to n - 1 do
    let i = Array.unsafe_get idx k in
    A1.blit src.words.(i) dst.words.(i);
    Bytes.blit src.tags.(i) 0 dst.tags.(i) 0 (Bytes.length src.tags.(i))
  done

let values t i =
  let words = t.words.(i) and tags = t.tags.(i) in
  Array.init (dim words) (fun j -> value_of (A1.get words j) (Bytes.get tags j))

let scalars_of_values values =
  let arr = Array.of_list values in
  of_values arr

(* |golden - actual| of one element, both of type [tag], from their
   bits: Value.abs_diff bit for bit. *)
let[@inline] elem_distance tag (g : int64) (a : int64) =
  if tag = tag_int then begin
    let d = Int64.sub g a in
    if Int64.equal d Int64.min_int then 9.223372036854775808e18
    else Int64.to_float (Int64.abs d)
  end
  else if Int64.equal g a then 0.0
  else begin
    let d = Float.abs (Int64.float_of_bits g -. Int64.float_of_bits a) in
    if Float.is_nan d || d = infinity then infinity else d
  end

(* Same scan structure as the test oracle's boxed [buffer_distance]: stop once the running
   worst exceeds [stop_at], so a later mismatched element is never even
   inspected (the boxed scan would not have reached it either). Each
   element mirrors Value.abs_diff bit for bit — including the
   Invalid_argument on a dynamic type mismatch, which the boxed oracle
   also raises when an injection smuggles a wrongly-typed value into a
   buffer. *)
let distance ?stop_at (gw : words) gt (aw : words) at =
  let gb = as_bits gw and ab = as_bits aw in
  let limit = match stop_at with None -> infinity | Some s -> s in
  let worst = ref 0.0 in
  let n = dim gw in
  let i = ref 0 in
  while !i < n && !worst <= limit do
    let j = !i in
    let gtag = Bytes.unsafe_get gt j in
    if gtag <> Bytes.unsafe_get at j then invalid_arg "Value.abs_diff: type mismatch";
    let d = elem_distance gtag (A1.unsafe_get gb j) (A1.unsafe_get ab j) in
    if d > !worst then worst := d;
    incr i
  done;
  !worst

let buffer_distance ?stop_at t i u j = distance ?stop_at t.words.(i) t.tags.(i) u.words.(j) u.tags.(j)

let has_nonfinite t i =
  let words = t.words.(i) and tags = t.tags.(i) in
  let n = dim words in
  let rec go j =
    if j >= n then false
    else if Bytes.unsafe_get tags j = tag_float && not (Float.is_finite (A1.unsafe_get words j))
    then true
    else go (j + 1)
  in
  go 0

(* Value.equal: same constructor and same 64 bits (floats compare by
   bits, so NaN = NaN and 0.0 <> -0.0 exactly as the boxed state). *)
let buffer_equal t i u j =
  let gb = as_bits t.words.(i) and ab = as_bits u.words.(j) in
  let n = dim t.words.(i) in
  Bytes.equal t.tags.(i) u.tags.(j)
  &&
  let rec go k =
    if k >= n then true
    else if Int64.equal (A1.unsafe_get gb k) (A1.unsafe_get ab k) then go (k + 1)
    else false
  in
  go 0

let equal a b =
  let n = Array.length a.words in
  let rec go i = if i >= n then true else if buffer_equal a i b i then go (i + 1) else false in
  go 0
