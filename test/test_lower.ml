(* Lowering tests: compile small kernel-language programs (without the
   optimizer, so the raw lowering is what executes) and check the computed
   outputs, schedule elaboration, and structural properties. *)

open Ff_lang
module Golden = Ff_vm.Golden
module Value = Ff_ir.Value
module Program = Ff_ir.Program

let compile_no_opt src =
  match Frontend.compile ~optimize:false src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

let run_no_opt src = Golden.run (compile_no_opt src)

let final golden name =
  let idx = Ff_benchmarks.Gen.buffer_index golden name in
  Ff_vm.Ustate.values golden.Golden.final idx

let check_floats msg golden name expected =
  let actual =
    Array.to_list (final golden name)
    |> List.map (function Value.Float f -> f | Value.Int _ -> Alcotest.fail "not float")
  in
  Alcotest.(check (list (float 1e-9))) msg expected actual

let check_ints msg golden name expected =
  let actual =
    Array.to_list (final golden name)
    |> List.map (function Value.Int i -> i | Value.Float _ -> Alcotest.fail "not int")
  in
  Alcotest.(check (list int64)) msg expected actual

let test_arithmetic () =
  let golden =
    run_no_opt
      {|output buffer res : float[4] = zeros;
kernel k(out res: float[]) {
  res[0] = 1.0 + 2.0 * 3.0;
  res[1] = (10.0 - 4.0) / 3.0;
  res[2] = -2.5;
  res[3] = fabs(-3.0) + sqrt(16.0);
}
schedule { call k(res); }|}
  in
  check_floats "float arithmetic" golden "res" [ 7.0; 2.0; -2.5; 7.0 ]

let test_int_ops () =
  let golden =
    run_no_opt
      {|output buffer res : int[6] = zeros;
kernel k(out res: int[]) {
  res[0] = 7 / 2;
  res[1] = 7 % 3;
  res[2] = (-7) / 2;
  res[3] = 1 << 4;
  res[4] = (5 & 3) | (8 ^ 8);
  res[5] = ~0;
}
schedule { call k(res); }|}
  in
  check_ints "int arithmetic" golden "res" [ 3L; 1L; -3L; 16L; 1L; -1L ]

let test_comparisons_and_logic () =
  let golden =
    run_no_opt
      {|output buffer res : int[6] = zeros;
kernel k(out res: int[]) {
  res[0] = 1 < 2;
  res[1] = 2.0 >= 3.0;
  res[2] = (1 < 2) && (3 != 3);
  res[3] = (1 > 2) || (3 == 3);
  res[4] = !0;
  res[5] = 5 && 9;
}
schedule { call k(res); }|}
  in
  (* Logical ops normalize any non-zero operand to 1. *)
  check_ints "comparisons/logic" golden "res" [ 1L; 0L; 0L; 1L; 1L; 1L ]

let test_control_flow () =
  let golden =
    run_no_opt
      {|output buffer res : float[4] = zeros;
kernel k(out res: float[]) {
  var x: float = 3.0;
  if (x > 2.0) {
    res[0] = 1.0;
  } else {
    res[0] = -1.0;
  }
  var i: int = 0;
  var acc: float = 0.0;
  while (i < 5) {
    acc = acc + 2.0;
    i = i + 1;
  }
  res[1] = acc;
  var sum: float = 0.0;
  for j in 0..4 {
    sum = sum + float_of_int(j);
  }
  res[2] = sum;
  for j2 in 3..3 {
    res[3] = 99.0;
  }
}
schedule { call k(res); }|}
  in
  check_floats "control flow" golden "res" [ 1.0; 10.0; 6.0; 0.0 ]

let test_for_bounds_evaluated_once () =
  let golden =
    run_no_opt
      {|output buffer res : int[1] = zeros;
kernel k(out res: int[]) {
  var n: int = 3;
  var count: int = 0;
  for i in 0..n {
    n = 10;  // must not extend the loop
    count = count + 1;
  }
  res[0] = count;
}
schedule { call k(res); }|}
  in
  check_ints "bounds evaluated once" golden "res" [ 3L ]

let test_builtins () =
  let golden =
    run_no_opt
      {|output buffer res : float[6] = zeros;
kernel k(out res: float[]) {
  res[0] = fmin(2.0, 3.0) + fmax(2.0, 3.0);
  res[1] = floor(2.7) + ceil(2.2);
  res[2] = exp(0.0) + log(1.0);
  res[3] = pow(2.0, 10.0);
  res[4] = select(1, 5.0, 6.0);
  res[5] = select(0, 5.0, 6.0);
}
schedule { call k(res); }|}
  in
  check_floats "builtins" golden "res" [ 5.0; 5.0; 1.0; 1024.0; 5.0; 6.0 ]

let test_int_builtins () =
  let golden =
    run_no_opt
      {|output buffer res : int[5] = zeros;
kernel k(out res: int[]) {
  res[0] = imin(3, -2) + imax(3, -2);
  res[1] = rotl(1, 1);
  res[2] = rotr(1, 1);
  res[3] = lshr(-1, 60);
  res[4] = int_of_float(3.99);
}
schedule { call k(res); }|}
  in
  check_ints "int builtins" golden "res"
    [ 1L; 2L; Int64.min_int; 15L; 3L ]

let test_bit_casts () =
  let golden =
    run_no_opt
      {|output buffer res : float[1] = zeros;
buffer tmp : int[1] = zeros;
kernel k(out res: float[], out tmp: int[]) {
  tmp[0] = bits_of_float(1.5);
  res[0] = float_of_bits(tmp[0]);
}
schedule { call k(res, tmp); }|}
  in
  check_floats "bit casts roundtrip" golden "res" [ 1.5 ]

let test_scalar_params () =
  let golden =
    run_no_opt
      {|output buffer res : float[2] = zeros;
kernel k(n: int, x: float, out res: float[]) {
  res[0] = float_of_int(n) * 2.0;
  res[1] = x + 1.0;
}
schedule { call k(21, 0.5, res); }|}
  in
  check_floats "scalar params preloaded" golden "res" [ 42.0; 1.5 ]

let test_schedule_unrolling () =
  let program =
    compile_no_opt
      {|output buffer res : float[8] = zeros;
kernel fill(i: int, out res: float[]) { res[i] = float_of_int(i); }
schedule {
  for i in 0..4 {
    call fill(i, res);
  }
  for j in 4..8 {
    call fill(j, res);
  }
}|}
  in
  Alcotest.(check int) "8 section instances" 8 (List.length program.Program.schedule);
  let labels = List.map (fun c -> c.Program.call_label) program.Program.schedule in
  Alcotest.(check string) "label of first" "fill[i=0]" (List.hd labels);
  let golden = Golden.run program in
  check_floats "unrolled fills" golden "res"
    [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 ]

let test_schedule_nested_loops_and_arith () =
  let program =
    compile_no_opt
      {|output buffer res : float[9] = zeros;
kernel fill(i: int, out res: float[]) { res[i] = 1.0; }
schedule {
  for i in 0..3 {
    for j in 0..3 {
      call fill(i * 3 + j, res);
    }
  }
}|}
  in
  Alcotest.(check int) "9 sections" 9 (List.length program.Program.schedule);
  let golden = Golden.run program in
  check_floats "all cells filled" golden "res" (List.init 9 (fun _ -> 1.0))

let test_inout_accumulation_across_sections () =
  let golden =
    run_no_opt
      {|output buffer acc : float[1] = { 1.0 };
kernel double(inout acc: float[]) { acc[0] = acc[0] * 2.0; }
schedule {
  for i in 0..5 {
    call double(acc);
  }
}|}
  in
  check_floats "sections chain state" golden "acc" [ 32.0 ]

let test_validates_after_lowering () =
  (* Every lowered program must pass IR validation even unoptimized. *)
  List.iter
    (fun b ->
      List.iter
        (fun v ->
          let src = b.Ff_benchmarks.Defs.source v in
          let p = compile_no_opt src in
          match Program.validate p with
          | Ok () -> ()
          | Error { Program.context; message } ->
            Alcotest.failf "%s/%s invalid: %s: %s" b.Ff_benchmarks.Defs.name
              (Ff_benchmarks.Defs.version_name v) context message)
        Ff_benchmarks.Defs.all_versions)
    Ff_benchmarks.Registry.all

let () =
  Alcotest.run "lower"
    [
      ( "semantics",
        [
          Alcotest.test_case "float arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "int ops" `Quick test_int_ops;
          Alcotest.test_case "comparisons/logic" `Quick test_comparisons_and_logic;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "for bounds once" `Quick test_for_bounds_evaluated_once;
          Alcotest.test_case "float builtins" `Quick test_builtins;
          Alcotest.test_case "int builtins" `Quick test_int_builtins;
          Alcotest.test_case "bit casts" `Quick test_bit_casts;
          Alcotest.test_case "scalar params" `Quick test_scalar_params;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "unrolling" `Quick test_schedule_unrolling;
          Alcotest.test_case "nested loops" `Quick test_schedule_nested_loops_and_arith;
          Alcotest.test_case "inout chaining" `Quick test_inout_accumulation_across_sections;
          Alcotest.test_case "benchmarks validate" `Quick test_validates_after_lowering;
        ] );
    ]
