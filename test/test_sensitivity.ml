(* Sensitivity-analysis tests: Lipschitz estimation on sections with known
   amplification factors. *)

module Sensitivity = Ff_sensitivity.Sensitivity
module Golden = Ff_vm.Golden
module Rng = Ff_support.Rng
module Frontend = Ff_lang.Frontend

let golden src = Golden.run (Result.get_ok (Frontend.compile src))

let estimate ?(samples = 150) ?(safety_factor = 1.0) g idx =
  Sensitivity.estimate ~samples ~safety_factor ~rng:(Rng.create 7L) g ~section_index:idx

let linear_src gain =
  Printf.sprintf
    {|buffer a : float[4] = { 0.1, 0.2, 0.3, 0.4 };
output buffer res : float[4] = zeros;
kernel scale(in a: float[], out res: float[]) {
  for i in 0..4 { res[i] = a[i] * %f; }
}
schedule { call scale(a, res); }|}
    gain

let test_linear_gain_estimated () =
  (* K of x -> 3x is exactly 3. *)
  let g = golden (linear_src 3.0) in
  let spec = estimate g 0 in
  let k = Sensitivity.amplification spec ~output:1 ~input:0 in
  Alcotest.(check bool) "K close to 3" true (k > 2.9 && k < 3.1)

let test_contraction_estimated () =
  let g = golden (linear_src 0.25) in
  let spec = estimate g 0 in
  let k = Sensitivity.amplification spec ~output:1 ~input:0 in
  Alcotest.(check bool) "K close to 0.25" true (k > 0.2 && k < 0.3)

let test_safety_factor_scales () =
  let g = golden (linear_src 2.0) in
  let plain = estimate ~safety_factor:1.0 g 0 in
  let padded = estimate ~safety_factor:1.5 g 0 in
  let k1 = Sensitivity.amplification plain ~output:1 ~input:0 in
  let k2 = Sensitivity.amplification padded ~output:1 ~input:0 in
  Alcotest.(check (float 1e-9)) "padded = 1.5x" (k1 *. 1.5) k2

let test_independent_buffers_zero () =
  let src =
    {|buffer a : float[2] = { 0.5, 0.5 };
buffer b : float[2] = { 0.25, 0.25 };
output buffer res : float[2] = zeros;
kernel pick(in a: float[], in b: float[], out res: float[]) {
  res[0] = a[0];
  res[1] = a[1];
}
schedule { call pick(a, b, res); }|}
  in
  let g = golden src in
  let spec = estimate g 0 in
  Alcotest.(check (float 0.0)) "res does not depend on b" 0.0
    (Sensitivity.amplification spec ~output:2 ~input:1);
  Alcotest.(check bool) "res depends on a" true
    (Sensitivity.amplification spec ~output:2 ~input:0 > 0.5)

let test_unknown_pair_is_zero () =
  let g = golden (linear_src 1.0) in
  let spec = estimate g 0 in
  Alcotest.(check (float 0.0)) "unknown buffer index" 0.0
    (Sensitivity.amplification spec ~output:9 ~input:0)

let test_inout_identity_at_least_one () =
  (* An inout buffer that keeps untouched elements carries perturbations
     through: K >= 1. *)
  let src =
    {|output buffer acc : float[4] = { 0.1, 0.2, 0.3, 0.4 };
kernel bump(inout acc: float[]) { acc[0] = acc[0] + 1.0; }
schedule { call bump(acc); }|}
  in
  let g = golden src in
  let spec = estimate g 0 in
  let k = Sensitivity.amplification spec ~output:0 ~input:0 in
  Alcotest.(check bool) "K >= 1" true (k >= 0.99)

let test_deterministic_given_rng () =
  let g = golden (linear_src 2.0) in
  let s1 =
    Sensitivity.estimate ~samples:50 ~rng:(Rng.create 9L) g ~section_index:0
  in
  let s2 =
    Sensitivity.estimate ~samples:50 ~rng:(Rng.create 9L) g ~section_index:0
  in
  Alcotest.(check int64) "same spec hash" (Sensitivity.spec_hash s1)
    (Sensitivity.spec_hash s2)

let test_spec_hash_sensitive () =
  let g2 = golden (linear_src 2.0) in
  let g3 = golden (linear_src 3.0) in
  let s2 = estimate g2 0 in
  let s3 = estimate g3 0 in
  Alcotest.(check bool) "different K different hash" false
    (Int64.equal (Sensitivity.spec_hash s2) (Sensitivity.spec_hash s3))

let test_control_divergence_amplification () =
  (* A section with a steep branch around the golden input: perturbation
     can flip the branch, and K must reflect the large output jump. *)
  let src =
    {|buffer a : float[1] = { 0.5 };
output buffer res : float[1] = zeros;
kernel step(in a: float[], out res: float[]) {
  if (a[0] > 0.5) {
    res[0] = 100.0;
  } else {
    res[0] = 0.0;
  }
}
schedule { call step(a, res); }|}
  in
  let g = golden src in
  let spec = estimate ~samples:400 g 0 in
  let k = Sensitivity.amplification spec ~output:1 ~input:0 in
  (* A +delta (up to 0.01) flips the branch: |delta_out|/|delta| >= 100/0.01. *)
  Alcotest.(check bool) "divergence amplifies hugely" true (k >= 10_000.0)

let test_int_buffer_avalanche () =
  (* Integer avalanche code (a multiply) has a large K: +-1 input change
     moves the output by the other factor. *)
  let src =
    {|buffer a : int[1] = { 1000 };
output buffer res : int[1] = zeros;
kernel mulbig(in a: int[], out res: int[]) { res[0] = a[0] * 4096; }
schedule { call mulbig(a, res); }|}
  in
  let g = golden src in
  let spec = estimate g 0 in
  let k = Sensitivity.amplification spec ~output:1 ~input:0 in
  Alcotest.(check bool) "avalanche K about 4096" true (k >= 4000.0)

let test_work_accounted () =
  let g = golden (linear_src 2.0) in
  let spec = estimate g 0 in
  Alcotest.(check bool) "simulated instructions charged" true
    (spec.Sensitivity.work > 0)

(* Sampling is part of every section record's identity (its spec hash is
   stored and keyed on), so any change to the perturbation model, the
   per-sample budget, the engine or the chunk seeding must show up here:
   one K bit or one unit of sampling work anywhere over the 105 sections
   of the 15 built-in versions moves these totals. *)
let test_builtin_sampling_unchanged () =
  let hash = ref 0L and work = ref 0 in
  List.iter
    (fun (b : Ff_benchmarks.Defs.t) ->
      List.iter
        (fun v ->
          let g = golden (b.Ff_benchmarks.Defs.source v) in
          Array.iteri
            (fun si _ ->
              let spec =
                Sensitivity.estimate ~rng:(Rng.create (Int64.of_int (si + 7))) g
                  ~section_index:si
              in
              hash := Int64.add !hash (Sensitivity.spec_hash spec);
              work := !work + spec.Sensitivity.work)
            g.Golden.sections)
        Ff_benchmarks.Defs.all_versions)
    Ff_benchmarks.Registry.all;
  Alcotest.(check int64) "sum of spec hashes" 0x9e65086b8dad37a4L !hash;
  Alcotest.(check int) "sampling work" 33_822_745 !work

let () =
  Alcotest.run "sensitivity"
    [
      ( "estimation",
        [
          Alcotest.test_case "linear gain" `Quick test_linear_gain_estimated;
          Alcotest.test_case "contraction" `Quick test_contraction_estimated;
          Alcotest.test_case "safety factor" `Quick test_safety_factor_scales;
          Alcotest.test_case "independence" `Quick test_independent_buffers_zero;
          Alcotest.test_case "unknown pair" `Quick test_unknown_pair_is_zero;
          Alcotest.test_case "inout identity" `Quick test_inout_identity_at_least_one;
          Alcotest.test_case "control divergence" `Quick test_control_divergence_amplification;
          Alcotest.test_case "integer avalanche" `Quick test_int_buffer_avalanche;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_rng;
          Alcotest.test_case "hash sensitive" `Quick test_spec_hash_sensitive;
          Alcotest.test_case "work accounted" `Quick test_work_accounted;
          Alcotest.test_case "built-in sampling unchanged" `Quick
            test_builtin_sampling_unchanged;
        ] );
    ]
