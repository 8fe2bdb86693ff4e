module Rng = Ff_support.Rng

let n = 12      (* matrix dimension *)
let bs = 4      (* block size *)
let nblocks = n / bs

(* Diagonally dominant input so no pivot vanishes. *)
let matrix_values =
  let rng = Rng.create 0xAB5EL in
  List.init (n * n) (fun idx ->
      let r = idx / n and c = idx mod n in
      let base = Rng.float rng 1.0 in
      if r = c then base +. float_of_int n else base)

let lu0_body =
  Printf.sprintf
    {|  var o: int = k * %d;
  for kk in 0..%d {
    var piv: float = a[(o + kk) * %d + (o + kk)];
    for ii in kk + 1..%d {
      a[(o + ii) * %d + (o + kk)] = a[(o + ii) * %d + (o + kk)] / piv;
      var l: float = a[(o + ii) * %d + (o + kk)];
      for jj in kk + 1..%d {
        a[(o + ii) * %d + (o + jj)] = a[(o + ii) * %d + (o + jj)] - l * a[(o + kk) * %d + (o + jj)];
      }
    }
  }|}
    bs bs n bs n n n bs n n n

let lu0_body_renamed =
  (* The Large version embeds the original body in the fallback branch of
     the LUT kernel, where the loop variable names must not collide with
     the probe loops. *)
  Printf.sprintf
    {|    var o2: int = k * %d;
    for fkk in 0..%d {
      var piv: float = a[(o2 + fkk) * %d + (o2 + fkk)];
      for fii in fkk + 1..%d {
        a[(o2 + fii) * %d + (o2 + fkk)] = a[(o2 + fii) * %d + (o2 + fkk)] / piv;
        var l: float = a[(o2 + fii) * %d + (o2 + fkk)];
        for fjj in fkk + 1..%d {
          a[(o2 + fii) * %d + (o2 + fjj)] = a[(o2 + fii) * %d + (o2 + fjj)] - l * a[(o2 + fkk) * %d + (o2 + fjj)];
        }
      }
    }|}
    bs bs n bs n n n bs n n n

let lu0_kernel =
  Printf.sprintf {|kernel lu0(k: int, inout a: float[]) {
%s
}|} lu0_body

let bdiv_kernel =
  Printf.sprintf
    {|kernel bdiv(k: int, j: int, inout a: float[]) {
  var ro: int = k * %d;
  var co: int = j * %d;
  for ii in 1..%d {
    for kk in 0..ii {
      var l: float = a[(ro + ii) * %d + (ro + kk)];
      for jj in 0..%d {
        a[(ro + ii) * %d + (co + jj)] = a[(ro + ii) * %d + (co + jj)] - l * a[(ro + kk) * %d + (co + jj)];
      }
    }
  }
}|}
    bs bs bs n bs n n n

let bmodd_kernel =
  Printf.sprintf
    {|kernel bmodd(k: int, i: int, inout a: float[]) {
  var ro: int = i * %d;
  var co: int = k * %d;
  for jj in 0..%d {
    for kk in 0..jj {
      var u: float = a[(co + kk) * %d + (co + jj)];
      for ii in 0..%d {
        a[(ro + ii) * %d + (co + jj)] = a[(ro + ii) * %d + (co + jj)] - u * a[(ro + ii) * %d + (co + kk)];
      }
    }
    var piv: float = a[(co + jj) * %d + (co + jj)];
    for ii2 in 0..%d {
      a[(ro + ii2) * %d + (co + jj)] = a[(ro + ii2) * %d + (co + jj)] / piv;
    }
  }
}|}
    bs bs bs n bs n n n n bs n n

(* The None bmod carries per-element edge-block bounds checks. *)
let bmod_guarded_loops ~suffix =
  Printf.sprintf
    {|  for ii%s in 0..%d {
    for jj%s in 0..%d {
      if (ro + ii%s < nn && co + jj%s < nn) {
        var acc%s: float = a[(ro + ii%s) * %d + (co + jj%s)];
        for kk%s in 0..%d {
          if (ko + kk%s < nn) {
            acc%s = acc%s - a[(ro + ii%s) * %d + (ko + kk%s)] * a[(ko + kk%s) * %d + (co + jj%s)];
          }
        }
        a[(ro + ii%s) * %d + (co + jj%s)] = acc%s;
      }
    }
  }|}
    suffix bs suffix bs suffix suffix suffix suffix n suffix suffix bs suffix suffix
    suffix suffix n suffix suffix n suffix suffix n suffix suffix

let bmod_unguarded_loops =
  Printf.sprintf
    {|  for uii in 0..%d {
    for ujj in 0..%d {
      var uacc: float = a[(ro + uii) * %d + (co + ujj)];
      for ukk in 0..%d {
        uacc = uacc - a[(ro + uii) * %d + (ko + ukk)] * a[(ko + ukk) * %d + (co + ujj)];
      }
      a[(ro + uii) * %d + (co + ujj)] = uacc;
    }
  }|}
    bs bs n bs n n n

let bmod_header =
  Printf.sprintf {|  var ro: int = j * %d;
  var co: int = i * %d;
  var ko: int = k * %d;|}
    bs bs bs

let bmod_kernel_none =
  Printf.sprintf {|kernel bmod(k: int, i: int, j: int, nn: int, inout a: float[]) {
%s
%s
}|}
    bmod_header
    (bmod_guarded_loops ~suffix:"")

let bmod_kernel_small =
  Printf.sprintf
    {|kernel bmod(k: int, i: int, j: int, nn: int, inout a: float[]) {
%s
  if (nn %% %d == 0) {
%s
  } else {
%s
  }
}|}
    bmod_header bs bmod_unguarded_loops
    (bmod_guarded_loops ~suffix:"g")

let buffers =
  Printf.sprintf {|output buffer a : float[%d] = { %s };|} (n * n)
    (Gen.float_values matrix_values)

let schedule ~lu0_args =
  Printf.sprintf
    {|schedule {
  for k in 0..%d {
    call lu0(%s);
    for i in k + 1..%d {
      call bdiv(k, i, a);
    }
    for j in k + 1..%d {
      call bmodd(k, j, a);
    }
    for i2 in k + 1..%d {
      for j2 in k + 1..%d {
        call bmod(k, i2, j2, %d, a);
      }
    }
  }
}|}
    nblocks lu0_args nblocks nblocks nblocks nblocks n

let assemble ~lu0 ~bmod ~lu0_args ~extra_buffers =
  String.concat "\n\n"
    [
      buffers ^ extra_buffers;
      lu0;
      bdiv_kernel;
      bmodd_kernel;
      bmod;
      schedule ~lu0_args;
    ]

let none_source =
  assemble ~lu0:lu0_kernel ~bmod:bmod_kernel_none ~lu0_args:"k, a" ~extra_buffers:""

let small_source =
  assemble ~lu0:lu0_kernel ~bmod:bmod_kernel_small ~lu0_args:"k, a" ~extra_buffers:""

let large_source =
  Gen.once (fun () ->
    begin
      let golden = Gen.golden_of_source none_source in
      let block_of values k =
        let arr = Array.of_list values in
        List.init (bs * bs) (fun e ->
            let r = e / bs and c = e mod bs in
            arr.((((k * bs) + r) * n) + (k * bs) + c))
      in
      let lut =
        List.concat
          (List.init nblocks (fun k ->
               let prefix = Printf.sprintf "lu0[k=%d]" k in
               let entry = Gen.entry_floats golden ~label_prefix:prefix ~buffer:"a" in
               let exit = Gen.exit_floats golden ~label_prefix:prefix ~buffer:"a" in
               block_of entry k @ block_of exit k))
      in
      let lut_buffer =
        Printf.sprintf "\nbuffer lu0_lut : float[%d] = { %s };" (nblocks * 2 * bs * bs)
          (Gen.float_values lut)
      in
      let lut_kernel =
        Printf.sprintf
          {|kernel lu0(k: int, in lu0_lut: float[], inout a: float[]) {
  var o: int = k * %d;
  var base: int = k * %d;
  var hit: int = 1;
  for ci in 0..%d {
    for cj in 0..%d {
      if (a[(o + ci) * %d + (o + cj)] != lu0_lut[base + ci * %d + cj]) {
        hit = 0;
      }
    }
  }
  if (hit == 1) {
    for ri in 0..%d {
      for rj in 0..%d {
        a[(o + ri) * %d + (o + rj)] = lu0_lut[base + %d + ri * %d + rj];
      }
    }
  } else {
%s
  }
}|}
          bs (2 * bs * bs) bs bs n bs bs bs n (bs * bs) bs lu0_body_renamed
      in
      assemble ~lu0:lut_kernel ~bmod:bmod_kernel_none ~lu0_args:"k, lu0_lut, a"
        ~extra_buffers:lut_buffer
    end)

let source = function
  | Defs.V_none -> none_source
  | Defs.V_small -> small_source
  | Defs.V_large -> large_source ()

let modification_desc = function
  | Defs.V_none -> "unmodified"
  | Defs.V_small ->
    "bmod specialized: skip edge-block bounds checks when the matrix size is a \
     multiple of the block size"
  | Defs.V_large -> "lu0 replaced by a block-content-keyed lookup table"

let benchmark =
  {
    Defs.name = "LUD";
    input_desc = "12x12";
    sections_desc = "4 (x14)";
    source;
    epsilon_good = 0.01;
    inaccuracy = 0.04;
    modification_desc;
  }
