(* Chisel tests: affine expression algebra (with qcheck properties),
   dataflow derivation, and end-to-end symbolic propagation. *)

open Ff_chisel
module Sensitivity = Ff_sensitivity.Sensitivity
module Golden = Ff_vm.Golden
module Rng = Ff_support.Rng
module Frontend = Ff_lang.Frontend

let golden src = Golden.run (Result.get_ok (Frontend.compile src))

let v s b = { Affine.section = s; buffer = b }

(* --- affine algebra --------------------------------------------------------- *)

let test_affine_basics () =
  Alcotest.(check bool) "zero is zero" true (Affine.is_zero Affine.zero);
  let e = Affine.var (v 0 1) in
  Alcotest.(check (float 0.0)) "var coeff" 1.0 (Affine.coeff e (v 0 1));
  Alcotest.(check (float 0.0)) "other coeff" 0.0 (Affine.coeff e (v 1 1))

let test_affine_add_scale () =
  let e =
    Affine.add
      (Affine.scale 2.0 (Affine.var (v 0 0)))
      (Affine.add (Affine.var (v 0 0)) (Affine.scale 4.0 (Affine.var (v 1 2))))
  in
  Alcotest.(check (float 1e-12)) "coeff sums" 3.0 (Affine.coeff e (v 0 0));
  Alcotest.(check (float 1e-12)) "other var" 4.0 (Affine.coeff e (v 1 2))

let test_affine_scale_zero () =
  let e = Affine.scale 0.0 (Affine.var (v 0 0)) in
  Alcotest.(check bool) "scale 0 is zero" true (Affine.is_zero e)

let test_affine_restrict () =
  let e = Affine.add (Affine.var (v 0 0)) (Affine.var (v 1 0)) in
  let r = Affine.restrict_section e 1 in
  Alcotest.(check (float 0.0)) "kept" 1.0 (Affine.coeff r (v 1 0));
  Alcotest.(check (float 0.0)) "dropped" 0.0 (Affine.coeff r (v 0 0))

let test_affine_eval_zero_times_inf () =
  let e = Affine.scale infinity (Affine.var (v 0 0)) in
  Alcotest.(check (float 0.0)) "0 * inf = 0 under eval" 0.0
    (Affine.eval e (fun _ -> 0.0));
  Alcotest.(check (float 0.0)) "inf coeff with nonzero phi" infinity
    (Affine.eval e (fun _ -> 0.5))

let test_affine_eval_linear () =
  let e = Affine.add (Affine.scale 2.0 (Affine.var (v 0 0))) (Affine.var (v 0 1)) in
  let phi var = if var.Affine.buffer = 0 then 3.0 else 5.0 in
  Alcotest.(check (float 1e-12)) "2*3 + 5" 11.0 (Affine.eval e phi)

let gen_affine =
  QCheck2.Gen.(
    let gen_var = map2 (fun s b -> v (s mod 4) (b mod 4)) nat nat in
    let gen_term = map2 (fun var c -> (var, abs_float c +. 0.001)) gen_var (float_bound_inclusive 10.0) in
    map
      (List.fold_left
         (fun acc (var, c) -> Affine.add acc (Affine.scale c (Affine.var var)))
         Affine.zero)
      (list_size (int_range 0 6) gen_term))

let prop_add_commutative =
  QCheck2.Test.make ~count:200 ~name:"affine add commutes"
    QCheck2.Gen.(pair gen_affine gen_affine)
    (fun (a, b) -> Affine.equal (Affine.add a b) (Affine.add b a))

let prop_add_associative =
  QCheck2.Test.make ~count:200 ~name:"affine add associates"
    QCheck2.Gen.(triple gen_affine gen_affine gen_affine)
    (fun (a, b, c) ->
      let l = Affine.add (Affine.add a b) c in
      let r = Affine.add a (Affine.add b c) in
      List.for_all
        (fun var -> Float.abs (Affine.coeff l var -. Affine.coeff r var) < 1e-9)
        (Affine.vars l @ Affine.vars r))

let prop_zero_identity =
  QCheck2.Test.make ~count:200 ~name:"zero is the add identity" gen_affine (fun a ->
      Affine.equal a (Affine.add a Affine.zero) && Affine.equal a (Affine.add Affine.zero a))

let prop_scale_distributes =
  QCheck2.Test.make ~count:200 ~name:"scale distributes over add"
    QCheck2.Gen.(triple (float_bound_inclusive 8.0) gen_affine gen_affine)
    (fun (c, a, b) ->
      let c = abs_float c in
      let l = Affine.scale c (Affine.add a b) in
      let r = Affine.add (Affine.scale c a) (Affine.scale c b) in
      List.for_all
        (fun var -> Float.abs (Affine.coeff l var -. Affine.coeff r var) < 1e-6)
        (Affine.vars l @ Affine.vars r))

let prop_eval_monotone_in_phi =
  QCheck2.Test.make ~count:200 ~name:"eval is monotone in the assignment" gen_affine
    (fun a ->
      let small = Affine.eval a (fun _ -> 1.0) in
      let large = Affine.eval a (fun _ -> 2.0) in
      large >= small)

(* --- dataflow ----------------------------------------------------------------- *)

let chain_src =
  {|buffer a : float[2] = { 1.0, 2.0 };
buffer mid : float[2] = zeros;
buffer side : float[2] = { 5.0, 6.0 };
output buffer res : float[2] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..2 { mid[i] = a[i] * 2.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..2 { res[i] = mid[i] + 1.0; }
}
kernel third(in side: float[], inout res: float[]) {
  res[0] = res[0] + side[0] * 0.0;
}
schedule {
  call first(a, mid);
  call second(mid, res);
  call third(side, res);
}|}

let test_dataflow_reads_writes () =
  let g = golden chain_src in
  let df = Dataflow.of_golden g in
  let s0 = df.Dataflow.sections.(0) in
  Alcotest.(check (list int)) "first reads a" [ 0 ] s0.Dataflow.reads;
  Alcotest.(check (list int)) "first writes mid" [ 1 ] s0.Dataflow.writes;
  let s2 = df.Dataflow.sections.(2) in
  Alcotest.(check (list int)) "third reads side+res (inout)" [ 2; 3 ] s2.Dataflow.reads;
  Alcotest.(check (list int)) "third writes res" [ 3 ] s2.Dataflow.writes

(* --- propagation ----------------------------------------------------------------- *)

let specs_for g =
  Array.init (Array.length g.Golden.sections) (fun i ->
      Sensitivity.estimate ~samples:120 ~safety_factor:1.0 ~rng:(Rng.create 3L) g
        ~section_index:i)

let test_propagation_chain_coefficients () =
  (* first: x2, second: +1 (K=1). phi in first's output amplifies by
     second's K into the final output; phi in second enters with coeff 1. *)
  let src =
    {|buffer a : float[2] = { 0.1, 0.2 };
buffer mid : float[2] = zeros;
output buffer res : float[2] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..2 { mid[i] = a[i] * 2.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..2 { res[i] = mid[i] * 3.0; }
}
schedule {
  call first(a, mid);
  call second(mid, res);
}|}
  in
  let g = golden src in
  let result = Propagate.run g ~specs:(specs_for g) in
  let bound = List.assoc 2 result.Propagate.final_bounds in
  let c_first = Affine.coeff bound (v 0 1) in
  let c_second = Affine.coeff bound (v 1 2) in
  Alcotest.(check bool) "first's phi amplified by ~3" true
    (c_first > 2.8 && c_first < 3.3);
  Alcotest.(check (float 1e-9)) "second's phi enters directly" 1.0 c_second

let test_propagation_last_section_coeff_one () =
  let g = golden chain_src in
  let result = Propagate.run g ~specs:(specs_for g) in
  let bound = List.assoc 3 result.Propagate.final_bounds in
  let last = Array.length g.Golden.sections - 1 in
  Alcotest.(check (float 1e-9)) "phi of the last section has coeff 1" 1.0
    (Affine.coeff bound (v last 3))

let test_specialized_restriction () =
  let g = golden chain_src in
  let result = Propagate.run g ~specs:(specs_for g) in
  let spec0 = Propagate.specialized result ~output:3 ~section:0 in
  List.iter
    (fun var -> Alcotest.(check int) "only section 0 vars" 0 var.Affine.section)
    (Affine.vars spec0)

let test_bound_for_injection () =
  let g = golden chain_src in
  let result = Propagate.run g ~specs:(specs_for g) in
  let zero = Propagate.bound_for_injection result ~output:3 ~section:0 ~magnitudes:[||] in
  Alcotest.(check (float 0.0)) "no SDC no bound" 0.0 zero;
  let some =
    Propagate.bound_for_injection result ~output:3 ~section:0 ~magnitudes:[| (1, 1.0) |]
  in
  Alcotest.(check bool) "positive SDC positive bound" true (some > 0.0)

let test_propagation_spec_arity_checked () =
  let g = golden chain_src in
  Alcotest.(check bool) "wrong arity rejected" true
    (try
       ignore (Propagate.run g ~specs:[||]);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "chisel"
    [
      ( "affine",
        [
          Alcotest.test_case "basics" `Quick test_affine_basics;
          Alcotest.test_case "add/scale" `Quick test_affine_add_scale;
          Alcotest.test_case "scale zero" `Quick test_affine_scale_zero;
          Alcotest.test_case "restrict" `Quick test_affine_restrict;
          Alcotest.test_case "0 * inf" `Quick test_affine_eval_zero_times_inf;
          Alcotest.test_case "eval linear" `Quick test_affine_eval_linear;
          QCheck_alcotest.to_alcotest prop_add_commutative;
          QCheck_alcotest.to_alcotest prop_add_associative;
          QCheck_alcotest.to_alcotest prop_zero_identity;
          QCheck_alcotest.to_alcotest prop_scale_distributes;
          QCheck_alcotest.to_alcotest prop_eval_monotone_in_phi;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "reads/writes" `Quick test_dataflow_reads_writes;
        ] );
      ( "propagate",
        [
          Alcotest.test_case "chain coefficients" `Quick test_propagation_chain_coefficients;
          Alcotest.test_case "last section coeff" `Quick
            test_propagation_last_section_coeff_one;
          Alcotest.test_case "specialized" `Quick test_specialized_restriction;
          Alcotest.test_case "bound for injection" `Quick test_bound_for_injection;
          Alcotest.test_case "arity checked" `Quick test_propagation_spec_arity_checked;
        ] );
    ]
