module Rng = Ff_support.Rng

let points = 16
let log2_points = 4

let input_re =
  Gen.random_floats ~seed:0xFF7AL ~lo:(-1.0) ~hi:1.0 points

let input_im =
  Gen.random_floats ~seed:0xFF7BL ~lo:(-1.0) ~hi:1.0 points

let bitrev_body =
  Printf.sprintf
    {|  for i in 0..%d {
    var r: int = 0;
    var v: int = i;
    for b in 0..%d {
      r = r * 2 + v %% 2;
      v = v / 2;
    }
    re[r] = xre[i];
    im[r] = xim[i];
  }|}
    points log2_points

let bitrev_kernel =
  Printf.sprintf
    {|kernel bitrev(in xre: float[], in xim: float[], out re: float[], out im: float[]) {
%s
}|}
    bitrev_body

(* The twiddle angle -2*pi*j/m: computed twice in the None version (once
   for cos, once for sin); the Small version stores it in a variable. *)
let stage_kernel ~hoisted =
  let twiddle =
    if hoisted then
      {|      var ang: float = -6.283185307179586 * float_of_int(j) / float_of_int(m);
      var wr: float = cos(ang);
      var wi: float = sin(ang);|}
    else
      {|      var wr: float = cos(-6.283185307179586 * float_of_int(j) / float_of_int(m));
      var wi: float = sin(-6.283185307179586 * float_of_int(j) / float_of_int(m));|}
  in
  Printf.sprintf
    {|kernel fft_stage(s: int, inout re: float[], inout im: float[]) {
  var m: int = 1;
  for t in 0..s + 1 {
    m = m * 2;
  }
  var half: int = m / 2;
  var g: int = 0;
  while (g < %d) {
    for j in 0..half {
%s
      var i1: int = g + j;
      var i2: int = i1 + half;
      var tr: float = wr * re[i2] - wi * im[i2];
      var ti: float = wr * im[i2] + wi * re[i2];
      re[i2] = re[i1] - tr;
      im[i2] = im[i1] - ti;
      re[i1] = re[i1] + tr;
      im[i1] = im[i1] + ti;
    }
    g = g + m;
  }
}|}
    points twiddle

let buffers =
  Printf.sprintf
    {|buffer xre : float[%d] = { %s };
buffer xim : float[%d] = { %s };
output buffer re : float[%d] = zeros;
output buffer im : float[%d] = zeros;|}
    points (Gen.float_values input_re) points (Gen.float_values input_im) points points

let schedule ~bitrev_args =
  Printf.sprintf
    {|schedule {
  call bitrev(%s);
  for s in 0..%d {
    call fft_stage(s, re, im);
  }
}|}
    bitrev_args log2_points

let assemble ~bitrev ~stage ~bitrev_args ~extra_buffers =
  String.concat "\n\n" [ buffers ^ extra_buffers; bitrev; stage; schedule ~bitrev_args ]

let none_source =
  assemble ~bitrev:bitrev_kernel ~stage:(stage_kernel ~hoisted:false)
    ~bitrev_args:"xre, xim, re, im" ~extra_buffers:""

let small_source =
  assemble ~bitrev:bitrev_kernel ~stage:(stage_kernel ~hoisted:true)
    ~bitrev_args:"xre, xim, re, im" ~extra_buffers:""

let large_source =
  Gen.once (fun () ->
    begin
      let golden = Gen.golden_of_source none_source in
      let rev_re = Gen.exit_floats golden ~label_prefix:"bitrev" ~buffer:"re" in
      let rev_im = Gen.exit_floats golden ~label_prefix:"bitrev" ~buffer:"im" in
      let lut = input_re @ input_im @ rev_re @ rev_im in
      let lut_buffer =
        Printf.sprintf "\nbuffer br_lut : float[%d] = { %s };" (4 * points)
          (Gen.float_values lut)
      in
      let lut_kernel =
        Printf.sprintf
          {|kernel bitrev(in xre: float[], in xim: float[], in br_lut: float[], out re: float[], out im: float[]) {
  var hit: int = 1;
  for ci in 0..%d {
    if (xre[ci] != br_lut[ci]) {
      hit = 0;
    }
    if (xim[ci] != br_lut[%d + ci]) {
      hit = 0;
    }
  }
  if (hit == 1) {
    for ri in 0..%d {
      re[ri] = br_lut[%d + ri];
      im[ri] = br_lut[%d + ri];
    }
  } else {
%s
  }
}|}
          points points points (2 * points) (3 * points) bitrev_body
      in
      assemble ~bitrev:lut_kernel ~stage:(stage_kernel ~hoisted:false)
        ~bitrev_args:"xre, xim, br_lut, re, im" ~extra_buffers:lut_buffer
    end)

let source = function
  | Defs.V_none -> none_source
  | Defs.V_small -> small_source
  | Defs.V_large -> large_source ()

let modification_desc = function
  | Defs.V_none -> "unmodified"
  | Defs.V_small -> "twiddle-angle expression hoisted into a variable in fft_stage"
  | Defs.V_large -> "bit-reversal replaced by an input-keyed lookup table"

let benchmark =
  {
    Defs.name = "FFT";
    input_desc = "16 pts";
    sections_desc = "5 (x1)";
    source;
    epsilon_good = 0.01;
    inaccuracy = 0.03;
    modification_desc;
  }
