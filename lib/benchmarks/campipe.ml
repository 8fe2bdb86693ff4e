module Rng = Ff_support.Rng

let dim = 6
let plane = dim * dim          (* 36 pixels per channel *)
let channels = 3

(* Bright-leaning raw values so a sizable share of tone-mapped pixels
   saturates at exactly 1.0 (the inter-section masking driver). *)
let raw_values = Gen.random_floats ~seed:0xCA31L ~lo:0.25 ~hi:1.3 plane

let demosaic_body =
  Printf.sprintf
    {|  for y in 0..%d {
    for x in 0..%d {
      var idx: int = y * %d + x;
      var v: float = raw[idx];
      var left: float = raw[y * %d + imax(x - 1, 0)];
      var up: float = raw[imax(y - 1, 0) * %d + x];
      rgb[idx] = v;
      rgb[%d + idx] = (v + left) * 0.5;
      rgb[%d + idx] = (v + up) * 0.5;
    }
  }|}
    dim dim dim dim dim plane (2 * plane)

let demosaic_kernel =
  Printf.sprintf {|kernel demosaic(in raw: float[], out rgb: float[]) {
%s
}|} demosaic_body

(* 5-tap cross blur per channel with clamped borders. *)
let denoise_kernel =
  Printf.sprintf
    {|kernel denoise(in rgb: float[], out dn: float[]) {
  for c in 0..%d {
    for y in 0..%d {
      for x in 0..%d {
        var up: int = imax(y - 1, 0);
        var down: int = imin(y + 1, %d);
        var left: int = imax(x - 1, 0);
        var right: int = imin(x + 1, %d);
        var acc: float = rgb[c * %d + y * %d + x]
          + rgb[c * %d + up * %d + x]
          + rgb[c * %d + down * %d + x]
          + rgb[c * %d + y * %d + left]
          + rgb[c * %d + y * %d + right];
        dn[c * %d + y * %d + x] = acc * 0.2;
      }
    }
  }
}|}
    channels dim dim (dim - 1) (dim - 1) plane dim plane dim plane dim plane dim plane
    dim plane dim

let transform_kernel =
  Printf.sprintf
    {|kernel transform(in dn: float[], out tr: float[]) {
  for p in 0..%d {
    var r: float = dn[p];
    var g: float = dn[%d + p];
    var b: float = dn[%d + p];
    tr[p] = 0.41 * r + 0.36 * g + 0.18 * b;
    tr[%d + p] = 0.21 * r + 0.72 * g + 0.07 * b;
    tr[%d + p] = 0.02 * r + 0.12 * g + 0.95 * b;
  }
}|}
    plane plane (2 * plane) plane (2 * plane)

(* Soft gamut compression x / (1 + 0.25 x): the None version loads tr[p]
   in both places; the Small version stores it in a variable first. *)
let gamut_kernel ~hoisted =
  let body =
    if hoisted then
      Printf.sprintf
        {|  for p in 0..%d {
    var x: float = tr[p];
    gm[p] = x / (1.0 + 0.25 * x);
  }|}
        (channels * plane)
    else
      Printf.sprintf
        {|  for p in 0..%d {
    gm[p] = tr[p] / (1.0 + 0.25 * tr[p]);
  }|}
        (channels * plane)
  in
  Printf.sprintf {|kernel gamut(in tr: float[], out gm: float[]) {
%s
}|} body

(* Gamma + scale + hard clamp: saturating pixels mask upstream SDCs. *)
let tonemap_kernel =
  Printf.sprintf
    {|kernel tonemap(in gm: float[], out img: float[]) {
  for p in 0..%d {
    var v: float = pow(fmax(gm[p], 0.0), 0.45454545454545453);
    img[p] = fmin(fmax(1.35 * v - 0.02, 0.0), 1.0);
  }
}|}
    (channels * plane)

let buffers =
  Printf.sprintf
    {|buffer raw : float[%d] = { %s };
buffer rgb : float[%d] = zeros;
buffer dn : float[%d] = zeros;
buffer tr : float[%d] = zeros;
buffer gm : float[%d] = zeros;
output buffer img : float[%d] = zeros;|}
    plane
    (Gen.float_values raw_values)
    (channels * plane) (channels * plane) (channels * plane) (channels * plane)
    (channels * plane)

let schedule ~demosaic_args =
  Printf.sprintf
    {|schedule {
  call demosaic(%s);
  call denoise(rgb, dn);
  call transform(dn, tr);
  call gamut(tr, gm);
  call tonemap(gm, img);
}|}
    demosaic_args

let assemble ~demosaic ~gamut ~demosaic_args ~extra_buffers =
  String.concat "\n\n"
    [
      buffers ^ extra_buffers;
      demosaic;
      denoise_kernel;
      transform_kernel;
      gamut;
      tonemap_kernel;
      schedule ~demosaic_args;
    ]

let none_source =
  assemble ~demosaic:demosaic_kernel ~gamut:(gamut_kernel ~hoisted:false)
    ~demosaic_args:"raw, rgb" ~extra_buffers:""

let small_source =
  assemble ~demosaic:demosaic_kernel ~gamut:(gamut_kernel ~hoisted:true)
    ~demosaic_args:"raw, rgb" ~extra_buffers:""

let large_source =
  Gen.once (fun () ->
    begin
      let golden = Gen.golden_of_source none_source in
      let rgb = Gen.exit_floats golden ~label_prefix:"demosaic" ~buffer:"rgb" in
      let lut = raw_values @ rgb in
      let lut_buffer =
        Printf.sprintf "\nbuffer dm_lut : float[%d] = { %s };"
          (plane + (channels * plane))
          (Gen.float_values lut)
      in
      let lut_kernel =
        Printf.sprintf
          {|kernel demosaic(in raw: float[], in dm_lut: float[], out rgb: float[]) {
  var hit: int = 1;
  for ci in 0..%d {
    if (raw[ci] != dm_lut[ci]) {
      hit = 0;
    }
  }
  if (hit == 1) {
    for ri in 0..%d {
      rgb[ri] = dm_lut[%d + ri];
    }
  } else {
%s
  }
}|}
          plane (channels * plane) plane demosaic_body
      in
      assemble ~demosaic:lut_kernel ~gamut:(gamut_kernel ~hoisted:false)
        ~demosaic_args:"raw, dm_lut, rgb" ~extra_buffers:lut_buffer
    end)

let source = function
  | Defs.V_none -> none_source
  | Defs.V_small -> small_source
  | Defs.V_large -> large_source ()

let modification_desc = function
  | Defs.V_none -> "unmodified"
  | Defs.V_small -> "gamut map: store the repeated tr[p] load in a variable"
  | Defs.V_large -> "demosaic replaced by an input-keyed lookup table"

let benchmark =
  {
    Defs.name = "Campipe";
    input_desc = "6x6";
    sections_desc = "5 (x1)";
    source;
    epsilon_good = 0.01;
    inaccuracy = 0.04;
    modification_desc;
  }
