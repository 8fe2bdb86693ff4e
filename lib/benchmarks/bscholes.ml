(* Inputs: (S, K, r, v, T, otype); otype 0 = call, 1 = put. *)
let options =
  [ (42.0, 40.0, 0.1, 0.2, 0.5, 0.0); (100.0, 110.0, 0.05, 0.3, 1.0, 1.0) ]

let opts_values =
  List.concat_map (fun (s, k, r, v, t, o) -> [ s; k; r; v; t; o ]) options

(* The d1/d2 section body (also the Large version's fallback path). *)
let bs_d_body =
  {|  var s: float = opts[o * 6 + 0];
  var k: float = opts[o * 6 + 1];
  var r: float = opts[o * 6 + 2];
  var v: float = opts[o * 6 + 3];
  var t: float = opts[o * 6 + 4];
  var sqt: float = sqrt(t);
  var d1: float = (log(s / k) + (r + v * v * 0.5) * t) / (v * sqt);
  var d2: float = d1 - v * sqt;
  dvals[o * 2 + 0] = d1;
  dvals[o * 2 + 1] = d2;|}

(* CNDF with the polynomial in expanded form: (k2*k2) and (k2*k2)*k redo
   multiplications the Small version shares (bit-identically). *)
let cndf_poly_none =
  {|  var k2: float = k * k;
  var poly: float = 0.31938153 * k
    + (-0.356563782) * k2
    + 1.781477937 * (k2 * k)
    + (-1.821255978) * (k2 * k2)
    + 1.330274429 * ((k2 * k2) * k);|}

let cndf_poly_small =
  {|  var k2: float = k * k;
  var k3: float = k2 * k;
  var k4: float = k2 * k2;
  var k5: float = k4 * k;
  var poly: float = 0.31938153 * k
    + (-0.356563782) * k2
    + 1.781477937 * k3
    + (-1.821255978) * k4
    + 1.330274429 * k5;|}

let cndf_kernel ~name ~d_index ~out_buffer ~poly =
  Printf.sprintf
    {|kernel %s(o: int, in dvals: float[], out %s: float[]) {
  var x: float = dvals[o * 2 + %d];
  var neg: int = 0;
  if (x < 0.0) {
    x = -x;
    neg = 1;
  }
  var k: float = 1.0 / (1.0 + 0.2316419 * x);
%s
  var nprime: float = 0.3989422804014327 * exp(-0.5 * (x * x));
  var nd: float = 1.0 - nprime * poly;
  if (neg == 1) {
    nd = 1.0 - nd;
  }
  %s[o] = nd;
}|}
    name out_buffer d_index poly out_buffer

let price_kernel =
  {|kernel bs_price(o: int, in opts: float[], in nd1: float[], in nd2: float[], out prices: float[]) {
  var s: float = opts[o * 6 + 0];
  var k: float = opts[o * 6 + 1];
  var r: float = opts[o * 6 + 2];
  var t: float = opts[o * 6 + 4];
  var otype: float = opts[o * 6 + 5];
  var fut: float = k * exp(-(r * t));
  var price: float = 0.0;
  if (otype < 0.5) {
    price = s * nd1[o] - fut * nd2[o];
  } else {
    price = fut * (1.0 - nd2[o]) - s * (1.0 - nd1[o]);
  }
  prices[o] = price;
}|}

let buffers =
  Printf.sprintf
    {|buffer opts : float[12] = { %s };
buffer dvals : float[4] = zeros;
buffer nd1 : float[2] = zeros;
buffer nd2 : float[2] = zeros;
output buffer prices : float[2] = zeros;|}
    (Gen.float_values opts_values)

let schedule ~d_args =
  Printf.sprintf
    {|schedule {
  for o in 0..2 {
    call bs_d(%s);
    call bs_cndf1(o, dvals, nd1);
    call bs_cndf2(o, dvals, nd2);
    call bs_price(o, opts, nd1, nd2, prices);
  }
}|}
    d_args

let plain_d_kernel =
  Printf.sprintf {|kernel bs_d(o: int, in opts: float[], out dvals: float[]) {
%s
}|}
    bs_d_body

let version_source ~poly ~d_kernel ~d_args ~extra_buffers =
  String.concat "\n\n"
    [
      buffers ^ extra_buffers;
      d_kernel;
      cndf_kernel ~name:"bs_cndf1" ~d_index:0 ~out_buffer:"nd1" ~poly;
      cndf_kernel ~name:"bs_cndf2" ~d_index:1 ~out_buffer:"nd2" ~poly;
      price_kernel;
      schedule ~d_args;
    ]

let none_source =
  version_source ~poly:cndf_poly_none ~d_kernel:plain_d_kernel
    ~d_args:"o, opts, dvals" ~extra_buffers:""

let small_source =
  version_source ~poly:cndf_poly_small ~d_kernel:plain_d_kernel
    ~d_args:"o, opts, dvals" ~extra_buffers:""

let large_source =
  Gen.once (fun () ->
    begin
      let golden = Gen.golden_of_source none_source in
      let dvals = Array.of_list (Gen.final_floats golden "dvals") in
      let opts = Array.of_list opts_values in
      let lut =
        List.concat
          (List.init 2 (fun o ->
               List.init 6 (fun j -> opts.((o * 6) + j))
               @ [ dvals.(o * 2); dvals.((o * 2) + 1) ]))
      in
      let lut_buffer =
        Printf.sprintf "\nbuffer bsd_lut : float[16] = { %s };" (Gen.float_values lut)
      in
      let lut_kernel =
        Printf.sprintf
          {|kernel bs_d(o: int, in opts: float[], in bsd_lut: float[], out dvals: float[]) {
  var base: int = o * 8;
  var hit: int = 1;
  for j in 0..6 {
    if (opts[o * 6 + j] != bsd_lut[base + j]) {
      hit = 0;
    }
  }
  if (hit == 1) {
    dvals[o * 2 + 0] = bsd_lut[base + 6];
    dvals[o * 2 + 1] = bsd_lut[base + 7];
  } else {
%s
  }
}|}
          bs_d_body
      in
      version_source ~poly:cndf_poly_none ~d_kernel:lut_kernel
        ~d_args:"o, opts, bsd_lut, dvals" ~extra_buffers:lut_buffer
    end)

let source = function
  | Defs.V_none -> none_source
  | Defs.V_small -> small_source
  | Defs.V_large -> large_source ()

let modification_desc = function
  | Defs.V_none -> "unmodified"
  | Defs.V_small ->
    "CNDF polynomial: share the k^2..k^5 powers instead of recomputing them \
     (bit-identical; both CNDF kernels change)"
  | Defs.V_large -> "d1/d2 section replaced by an input-keyed lookup table"

let benchmark =
  {
    Defs.name = "BScholes";
    input_desc = "2 options";
    sections_desc = "4 (x2)";
    source;
    epsilon_good = 0.01;
    inaccuracy = 0.10;
    modification_desc;
  }
