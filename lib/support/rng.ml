type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let copy t = { state = t.state }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = int64 t in
  { state = mix (Int64.logxor seed 0xA5A5A5A5A5A5A5A5L) }

let bits t n =
  if n <= 0 then 0L
  else if n >= 64 then int64 t
  else Int64.logand (int64 t) (Int64.sub (Int64.shift_left 1L n) 1L)

let int t bound =
  assert (bound > 0);
  (* land max_int: Int64.to_int keeps the low 63 bits, which can flip the
     OCaml int sign bit; mask it off to stay non-negative. *)
  let raw = Int64.to_int (int64 t) land max_int in
  raw mod bound

let float t bound =
  (* 53 random bits -> [0, 1), scaled. *)
  let mantissa = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  mantissa /. 9007199254740992.0 *. bound

let float_signed t m =
  let u = float t (2.0 *. m) in
  u -. m

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
