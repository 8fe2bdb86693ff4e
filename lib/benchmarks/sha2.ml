module Rng = Ff_support.Rng

let mask = 4294967295L (* 2^32 - 1 *)

(* 32-byte message: 8 deterministic words. *)
let message_words =
  let rng = Rng.create 0x5AA2L in
  List.init 8 (fun _ -> Int64.logand (Rng.int64 rng) mask)

(* One padded 512-bit block: message, 0x80 byte, zero fill, bit length. *)
let block_words = message_words @ [ 0x80000000L; 0L; 0L; 0L; 0L; 0L; 0L; 256L ]

let round_constants =
  [
    0x428a2f98L; 0x71374491L; 0xb5c0fbcfL; 0xe9b5dba5L; 0x3956c25bL; 0x59f111f1L;
    0x923f82a4L; 0xab1c5ed5L; 0xd807aa98L; 0x12835b01L; 0x243185beL; 0x550c7dc3L;
    0x72be5d74L; 0x80deb1feL; 0x9bdc06a7L; 0xc19bf174L; 0xe49b69c1L; 0xefbe4786L;
    0x0fc19dc6L; 0x240ca1ccL; 0x2de92c6fL; 0x4a7484aaL; 0x5cb0a9dcL; 0x76f988daL;
    0x983e5152L; 0xa831c66dL; 0xb00327c8L; 0xbf597fc7L; 0xc6e00bf3L; 0xd5a79147L;
    0x06ca6351L; 0x14292967L; 0x27b70a85L; 0x2e1b2138L; 0x4d2c6dfcL; 0x53380d13L;
    0x650a7354L; 0x766a0abbL; 0x81c2c92eL; 0x92722c85L; 0xa2bfe8a1L; 0xa81a664bL;
    0xc24b8b70L; 0xc76c51a3L; 0xd192e819L; 0xd6990624L; 0xf40e3585L; 0x106aa070L;
    0x19a4c116L; 0x1e376c08L; 0x2748774cL; 0x34b0bcb5L; 0x391c0cb3L; 0x4ed8aa4aL;
    0x5b9cca4fL; 0x682e6ff3L; 0x748f82eeL; 0x78a5636fL; 0x84c87814L; 0x8cc70208L;
    0x90befffaL; 0xa4506cebL; 0xbef9a3f7L; 0xc67178f2L;
  ]

let initial_hash =
  [
    0x6a09e667L; 0xbb67ae85L; 0x3c6ef372L; 0xa54ff53aL; 0x510e527fL; 0x9b05688cL;
    0x1f83d9abL; 0x5be0cd19L;
  ]

let schedule_kernel =
  {|kernel sha_schedule(in msg: int[], out w: int[]) {
  for i in 0..16 {
    w[i] = msg[i];
  }
  for i2 in 16..64 {
    var x15: int = w[i2 - 15];
    var x2: int = w[i2 - 2];
    var s0: int = ((lshr(x15, 7) | (x15 << 25)) ^ (lshr(x15, 18) | (x15 << 14)) ^ lshr(x15, 3)) & 4294967295;
    var s1: int = ((lshr(x2, 17) | (x2 << 15)) ^ (lshr(x2, 19) | (x2 << 13)) ^ lshr(x2, 10)) & 4294967295;
    w[i2] = (w[i2 - 16] + s0 + w[i2 - 7] + s1) & 4294967295;
  }
}|}

(* Σ1(e): rotr 6, 11 and 25. The None version recomputes the rotr-11
   value before composing it into rotr-25; the Small version reuses the
   e11 already at hand (eliminating the redundant shift pair). Both are
   bit-identical since rotr25(e) = rotr14(rotr11(e)) on masked words. *)
let sigma1 ~redundant =
  if redundant then
    {|    var e6: int = (lshr(e, 6) | (e << 26)) & 4294967295;
    var e11: int = (lshr(e, 11) | (e << 21)) & 4294967295;
    var e11b: int = (lshr(e, 11) | (e << 21)) & 4294967295;
    var e25: int = (lshr(e11b, 14) | (e11b << 18)) & 4294967295;
    var s1: int = e6 ^ e11 ^ e25;|}
  else
    {|    var e6: int = (lshr(e, 6) | (e << 26)) & 4294967295;
    var e11: int = (lshr(e, 11) | (e << 21)) & 4294967295;
    var e25: int = (lshr(e11, 14) | (e11 << 18)) & 4294967295;
    var s1: int = e6 ^ e11 ^ e25;|}

let compress_body ~redundant ~indent =
  let body =
    Printf.sprintf
      {|  var a: int = state[0];
  var b: int = state[1];
  var c: int = state[2];
  var d: int = state[3];
  var e: int = state[4];
  var f: int = state[5];
  var g: int = state[6];
  var h: int = state[7];
  for i in 0..64 {
%s
    var ch: int = (e & f) ^ ((~e & 4294967295) & g);
    var temp1: int = (h + s1 + ch + kconst[i] + w[i]) & 4294967295;
    var a2: int = (lshr(a, 2) | (a << 30)) & 4294967295;
    var a13: int = (lshr(a, 13) | (a << 19)) & 4294967295;
    var a22: int = (lshr(a, 22) | (a << 10)) & 4294967295;
    var s0: int = a2 ^ a13 ^ a22;
    var maj: int = (a & b) ^ (a & c) ^ (b & c);
    var temp2: int = (s0 + maj) & 4294967295;
    h = g;
    g = f;
    f = e;
    e = (d + temp1) & 4294967295;
    d = c;
    c = b;
    b = a;
    a = (temp1 + temp2) & 4294967295;
  }
  state[0] = (state[0] + a) & 4294967295;
  state[1] = (state[1] + b) & 4294967295;
  state[2] = (state[2] + c) & 4294967295;
  state[3] = (state[3] + d) & 4294967295;
  state[4] = (state[4] + e) & 4294967295;
  state[5] = (state[5] + f) & 4294967295;
  state[6] = (state[6] + g) & 4294967295;
  state[7] = (state[7] + h) & 4294967295;|}
      (sigma1 ~redundant)
  in
  if indent = 0 then body
  else begin
    let pad = String.make indent ' ' in
    String.split_on_char '\n' body |> List.map (fun l -> pad ^ l) |> String.concat "\n"
  end

let compress_kernel ~redundant =
  Printf.sprintf {|kernel sha_compress(in w: int[], in kconst: int[], inout state: int[]) {
%s
}|}
    (compress_body ~redundant ~indent:0)

let final_kernel =
  {|kernel sha_final(in state: int[], out digest: int[]) {
  for i in 0..8 {
    digest[i] = state[i] & 4294967295;
  }
}|}

let buffers =
  Printf.sprintf
    {|buffer msg : int[16] = { %s };
buffer kconst : int[64] = { %s };
buffer w : int[64] = zeros;
buffer state : int[8] = { %s };
output buffer digest : int[8] = zeros;|}
    (Gen.int_values block_words)
    (Gen.int_values round_constants)
    (Gen.int_values initial_hash)

let schedule ~compress_args =
  Printf.sprintf
    {|schedule {
  call sha_schedule(msg, w);
  call sha_compress(%s);
  call sha_final(state, digest);
}|}
    compress_args

let assemble ~compress ~compress_args ~extra_buffers =
  String.concat "\n\n"
    [ buffers ^ extra_buffers; schedule_kernel; compress; final_kernel;
      schedule ~compress_args ]

let none_source =
  assemble ~compress:(compress_kernel ~redundant:true)
    ~compress_args:"w, kconst, state" ~extra_buffers:""

let small_source =
  assemble ~compress:(compress_kernel ~redundant:false)
    ~compress_args:"w, kconst, state" ~extra_buffers:""

let large_source =
  Gen.once (fun () ->
    begin
      let golden = Gen.golden_of_source none_source in
      let w_entry = Gen.entry_ints golden ~label_prefix:"sha_compress" ~buffer:"w" in
      let state_entry =
        Gen.entry_ints golden ~label_prefix:"sha_compress" ~buffer:"state"
      in
      let state_exit = Gen.exit_ints golden ~label_prefix:"sha_compress" ~buffer:"state" in
      let lut = w_entry @ state_entry @ state_exit in
      let lut_buffer =
        Printf.sprintf "\nbuffer cmp_lut : int[80] = { %s };" (Gen.int_values lut)
      in
      let lut_kernel =
        Printf.sprintf
          {|kernel sha_compress(in w: int[], in kconst: int[], in cmp_lut: int[], inout state: int[]) {
  var hit: int = 1;
  for ci in 0..64 {
    if (w[ci] != cmp_lut[ci]) {
      hit = 0;
    }
  }
  for cs in 0..8 {
    if (state[cs] != cmp_lut[64 + cs]) {
      hit = 0;
    }
  }
  if (hit == 1) {
    for ri in 0..8 {
      state[ri] = cmp_lut[72 + ri];
    }
  } else {
%s
  }
}|}
          (compress_body ~redundant:true ~indent:2)
      in
      assemble ~compress:lut_kernel ~compress_args:"w, kconst, cmp_lut, state"
        ~extra_buffers:lut_buffer
    end)

let source = function
  | Defs.V_none -> none_source
  | Defs.V_small -> small_source
  | Defs.V_large -> large_source ()

let modification_desc = function
  | Defs.V_none -> "unmodified"
  | Defs.V_small ->
    "compression Sigma1: reuse the rotr-11 term instead of recomputing it \
     (eliminates a redundant shift pair)"
  | Defs.V_large -> "compression (the dominant section) replaced by a lookup table"

let benchmark =
  {
    Defs.name = "SHA2";
    input_desc = "32 bytes";
    sections_desc = "3 (x1)";
    source;
    epsilon_good = 0.0;
    inaccuracy = 0.04;
    modification_desc;
  }
