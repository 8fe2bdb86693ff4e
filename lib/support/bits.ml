let flip w b =
  assert (b >= 0 && b < 64);
  Int64.logxor w (Int64.shift_left 1L b)

let bits_of_float = Int64.bits_of_float

let flip_float x b = Int64.float_of_bits (flip (bits_of_float x) b)
