(* Optimizer tests: unit tests per pass plus differential properties —
   the optimized and unoptimized compilations of randomly generated and
   benchmark programs must produce bit-identical golden outputs. The
   unoptimized program runs on the tests' boxed oracle, so constant
   folding, which evaluates on the unboxed engine's step, is checked
   against an independent engine. *)

open Ff_lang
open Ff_ir
module Golden = Ff_vm.Golden
module Liveness = Opt.Liveness
module Rng = Ff_support.Rng

let compile ~optimize src =
  match Frontend.compile ~optimize src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

let kernel_named program name =
  match Program.find_kernel program name with
  | Some k -> k
  | None -> Alcotest.failf "no kernel %s" name

let count_opcode pred (k : Kernel.t) =
  Array.fold_left (fun acc i -> if pred i then acc + 1 else acc) 0 k.Kernel.code

(* --- unit tests on passes ------------------------------------------------ *)

let test_constant_fold_arith () =
  let k =
    {
      Kernel.name = "k";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.Out) ];
      code =
        [|
          Instr.Iconst (0, 6L);
          Instr.Iconst (1, 7L);
          Instr.Ibin (Instr.Imul, 2, 0, 1);
          Instr.Iconst (3, 0L);
          Instr.Store (0, 3, 2);
          Instr.Halt;
        |];
      nregs = 4;
    }
  in
  let folded = Opt.constant_fold k in
  (match folded.Kernel.code.(2) with
  | Instr.Iconst (2, 42L) -> ()
  | other -> Alcotest.failf "expected folded iconst, got %s" (Instr.to_string other));
  Alcotest.(check int) "instruction count preserved" (Array.length k.Kernel.code)
    (Array.length folded.Kernel.code)

let test_constant_fold_keeps_trapping_div () =
  let k =
    {
      Kernel.name = "k";
      params = [ Kernel.Buffer ("b", Value.TInt, Kernel.Out) ];
      code =
        [|
          Instr.Iconst (0, 1L);
          Instr.Iconst (1, 0L);
          Instr.Ibin (Instr.Idiv, 2, 0, 1);
          Instr.Store (0, 1, 2);
          Instr.Halt;
        |];
      nregs = 3;
    }
  in
  let folded = Opt.constant_fold k in
  match folded.Kernel.code.(2) with
  | Instr.Ibin (Instr.Idiv, _, _, _) -> ()
  | other -> Alcotest.failf "division by zero must not fold: %s" (Instr.to_string other)

let test_constant_fold_resets_at_targets () =
  (* r0 is constant on the fall-through path but the loop back-edge makes
     instruction 2 a join; the use at the join must not be folded. *)
  let k =
    {
      Kernel.name = "k";
      params = [ Kernel.Buffer ("b", Value.TInt, Kernel.InOut) ];
      code =
        [|
          Instr.Iconst (0, 5L);
          Instr.Iconst (1, 0L);
          (* 2: *) Instr.Ibin (Instr.Iadd, 0, 0, 0);
          Instr.Load (2, 0, 1);
          Instr.Br (2, 2, 5);
          Instr.Halt;
        |];
      nregs = 3;
    }
  in
  let folded = Opt.constant_fold k in
  match folded.Kernel.code.(2) with
  | Instr.Ibin (Instr.Iadd, _, _, _) -> ()
  | other -> Alcotest.failf "join must reset constants: %s" (Instr.to_string other)

let test_branch_folding () =
  let k =
    {
      Kernel.name = "k";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.Out) ];
      code =
        [|
          Instr.Iconst (0, 1L);
          Instr.Br (0, 2, 3);
          Instr.Halt;
          Instr.Halt;
        |];
      nregs = 1;
    }
  in
  let folded = Opt.constant_fold k in
  match folded.Kernel.code.(1) with
  | Instr.Jmp 2 -> ()
  | other -> Alcotest.failf "constant branch should fold: %s" (Instr.to_string other)

let test_copy_propagation_and_dce () =
  let src =
    {|output buffer res : float[1] = zeros;
kernel k(out res: float[]) {
  var a: float = 2.0;
  var b: float = a;
  var c: float = b;
  var dead: float = c * 100.0;
  res[0] = c;
}
schedule { call k(res); }|}
  in
  let optimized = compile ~optimize:true src in
  let k = kernel_named optimized "k" in
  Alcotest.(check int) "no movs survive" 0
    (count_opcode (function Instr.Mov _ -> true | _ -> false) k);
  Alcotest.(check int) "dead multiply removed" 0
    (count_opcode (function Instr.Fbin (Instr.Fmul, _, _, _) -> true | _ -> false) k)

let test_dce_keeps_stores () =
  let src =
    {|output buffer res : float[1] = zeros;
kernel k(out res: float[]) { res[0] = 3.5; }
schedule { call k(res); }|}
  in
  let optimized = compile ~optimize:true src in
  let k = kernel_named optimized "k" in
  Alcotest.(check int) "store survives" 1
    (count_opcode (function Instr.Store _ -> true | _ -> false) k)

let test_unreachable_elimination () =
  let k =
    {
      Kernel.name = "k";
      params = [];
      code = [| Instr.Jmp 2; Instr.Iconst (0, 9L); Instr.Halt |];
      nregs = 1;
    }
  in
  let pruned = Opt.remove_unreachable k in
  Alcotest.(check int) "dead instruction dropped" 2 (Array.length pruned.Kernel.code);
  (match Kernel.validate pruned with
  | Ok () -> ()
  | Error { Kernel.message; _ } -> Alcotest.failf "invalid after prune: %s" message)

let test_simplify_jumps () =
  let k =
    {
      Kernel.name = "k";
      params = [];
      code = [| Instr.Br (0, 2, 2); Instr.Halt; Instr.Jmp 3; Instr.Halt |];
      nregs = 1;
    }
  in
  let simplified = Opt.simplify_jumps k in
  (match simplified.Kernel.code.(0) with
  | Instr.Jmp 3 -> ()
  | other -> Alcotest.failf "br same targets + chain: %s" (Instr.to_string other))

let test_optimize_shrinks_benchmarks () =
  List.iter
    (fun b ->
      let src = b.Ff_benchmarks.Defs.source Ff_benchmarks.Defs.V_none in
      let raw = compile ~optimize:false src in
      let opt = compile ~optimize:true src in
      let size p =
        List.fold_left
          (fun acc (k : Kernel.t) -> acc + Array.length k.Kernel.code)
          0 p.Program.kernels
      in
      if size opt > size raw then
        Alcotest.failf "%s grew under optimization (%d -> %d)" b.Ff_benchmarks.Defs.name
          (size raw) (size opt))
    Ff_benchmarks.Registry.all

(* --- pinned output ---------------------------------------------------------- *)

(* What the optimizer emits, pinned by hash: a refactor of any pass (or of
   the evaluators constant folding runs) must keep every built-in kernel
   and every folded random kernel byte-identical. *)

let test_benchmark_code_pinned () =
  let kernels =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun v -> (compile ~optimize:true (b.Ff_benchmarks.Defs.source v)).Program.kernels)
          Ff_benchmarks.Defs.all_versions)
      Ff_benchmarks.Registry.all
  in
  let sum = List.fold_left (fun acc k -> Int64.add acc (Kernel.code_hash k)) 0L kernels in
  let instrs =
    List.fold_left (fun acc (k : Kernel.t) -> acc + Array.length k.Kernel.code) 0 kernels
  in
  Alcotest.(check int) "kernels" 54 (List.length kernels);
  Alcotest.(check int) "instructions" 3482 instrs;
  Alcotest.(check int64) "sum of code hashes" 0x2684702514ca0a44L sum

let test_random_kernels_pinned () =
  let rand = Random.State.make [| 7 |] in
  let acc = ref 0L and changed = ref 0 in
  let mix h = acc := Int64.add (Int64.mul !acc 31L) h in
  for _ = 1 to 2000 do
    let k = QCheck2.Gen.generate1 ~rand Rand_kernel.gen_kernel in
    let folded = Opt.constant_fold k in
    (* structural inequality: a kernel holding a NaN constant counts too *)
    if folded.Kernel.code <> k.Kernel.code then incr changed;
    mix (Kernel.code_hash folded);
    mix (Kernel.code_hash (Opt.optimize k))
  done;
  Alcotest.(check int) "kernels changed by folding" 365 !changed;
  Alcotest.(check int64) "folded and optimized hashes" 0x3a4d8995bff16172L !acc

(* --- liveness ------------------------------------------------------------------ *)

(* The bool-matrix round-robin fixpoint that the bitset [Liveness]
   replaced, kept as its oracle: live_out and live_in are one bool per
   (pc, register), swept in reverse until nothing changes. *)
let reference_live_out (kernel : Kernel.t) =
  let code = kernel.Kernel.code in
  let n = Array.length code in
  let nregs = kernel.Kernel.nregs in
  let succ =
    Array.mapi
      (fun pc instr ->
        if Instr.is_terminator instr then Array.of_list (Instr.labels instr)
        else [| pc + 1 |])
      code
  in
  let live_in = Array.make_matrix n nregs false in
  let live_out = Array.make_matrix n nregs false in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let o = live_out.(pc) in
      Array.iter
        (fun s ->
          Array.iteri
            (fun r live ->
              if live && not o.(r) then begin
                o.(r) <- true;
                changed := true
              end)
            live_in.(s))
        succ.(pc);
      let i = live_in.(pc) in
      let d = Option.value ~default:(-1) (Instr.dst code.(pc)) in
      let gen r =
        if not i.(r) then begin
          i.(r) <- true;
          changed := true
        end
      in
      Array.iteri (fun r live -> if live && r <> d then gen r) o;
      List.iter gen (Instr.srcs code.(pc))
    done
  done;
  live_out

(* Every (pc, register) cell of the bitset analysis equals the oracle's;
   returns the number of cells compared. *)
let check_liveness ~msg (kernel : Kernel.t) =
  let live = Liveness.of_kernel kernel in
  let expected = reference_live_out kernel in
  Array.iteri
    (fun pc row ->
      Array.iteri
        (fun reg want ->
          if Liveness.live_out live ~pc ~reg <> want then
            Alcotest.failf "%s: live_out pc %d reg %d (nregs %d) is %b, the oracle says %b"
              msg pc reg kernel.Kernel.nregs (not want) want)
        row)
    expected;
  Array.length expected * kernel.Kernel.nregs

(* Register counts on both sides of the 63-bit word boundaries. *)
let liveness_nregs = [ 1; 2; 62; 63; 64; 125; 126; 127; 200; 257 ]

let prop_liveness_matches_oracle =
  QCheck2.Test.make ~count:400 ~name:"bitset liveness equals the bool-matrix oracle"
    ~print:(Format.asprintf "%a" Kernel.pp)
    QCheck2.Gen.(oneofl liveness_nregs >>= Rand_kernel.gen_kernel_nregs)
    (fun k ->
      ignore (check_liveness ~msg:"random" k);
      ignore (check_liveness ~msg:"random, optimized" (Opt.optimize k));
      true)

let test_liveness_benchmarks () =
  let cells = ref 0 in
  List.iter
    (fun b ->
      List.iter
        (fun v ->
          let src = b.Ff_benchmarks.Defs.source v in
          List.iter
            (fun optimize ->
              List.iter
                (fun (k : Kernel.t) ->
                  let msg =
                    Printf.sprintf "%s/%s %s (optimize %b)" b.Ff_benchmarks.Defs.name
                      (Ff_benchmarks.Defs.version_name v) k.Kernel.name optimize
                  in
                  cells := !cells + check_liveness ~msg k)
                (compile ~optimize src).Program.kernels)
            [ false; true ])
        Ff_benchmarks.Defs.all_versions)
    Ff_benchmarks.Registry.all;
  Alcotest.(check bool) "cells compared" true (!cells > 0)

(* --- differential properties --------------------------------------------- *)

let outputs_equal va vb =
  List.for_all2
    (fun (_, _, xs) (_, _, ys) ->
      Array.length xs = Array.length ys
      && Array.for_all2 (fun x y -> Value.equal x y) xs ys)
    va vb

let test_differential_benchmarks () =
  List.iter
    (fun b ->
      List.iter
        (fun v ->
          let src = b.Ff_benchmarks.Defs.source v in
          let raw = Oracle.golden_run (compile ~optimize:false src) in
          let opt = Golden.run (compile ~optimize:true src) in
          if not (outputs_equal (Oracle.outputs raw) (Golden.outputs opt)) then
            Alcotest.failf "%s/%s: optimization changed outputs" b.Ff_benchmarks.Defs.name
              (Ff_benchmarks.Defs.version_name v))
        Ff_benchmarks.Defs.all_versions)
    Ff_benchmarks.Registry.all

(* Random straight-line + loop programs for qcheck differential testing. *)
let gen_program seed =
  let rng = Rng.create (Int64.of_int seed) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "output buffer res : float[4] = zeros;\n";
  Buffer.add_string buf "buffer inp : float[4] = { 1.5, -2.0, 0.25, 3.0 };\n";
  Buffer.add_string buf "kernel k(in inp: float[], out res: float[]) {\n";
  let nvars = 2 + Rng.int rng 4 in
  for v = 0 to nvars - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  var v%d: float = %f;\n" v (Rng.float rng 4.0 -. 2.0))
  done;
  let var () = Printf.sprintf "v%d" (Rng.int rng nvars) in
  let expr () =
    match Rng.int rng 6 with
    | 0 -> Printf.sprintf "%s + %s" (var ()) (var ())
    | 1 -> Printf.sprintf "%s * %s" (var ()) (var ())
    | 2 -> Printf.sprintf "fabs(%s)" (var ())
    | 3 -> Printf.sprintf "inp[%d] - %s" (Rng.int rng 4) (var ())
    | 4 -> Printf.sprintf "fmin(%s, %s)" (var ()) (var ())
    | _ -> Printf.sprintf "%f" (Rng.float rng 2.0)
  in
  let nstmts = 3 + Rng.int rng 8 in
  for _ = 1 to nstmts do
    match Rng.int rng 4 with
    | 0 -> Buffer.add_string buf (Printf.sprintf "  %s = %s;\n" (var ()) (expr ()))
    | 1 ->
      Buffer.add_string buf
        (Printf.sprintf "  if (%s > %s) { %s = %s; } else { %s = %s; }\n" (var ()) (var ())
           (var ()) (expr ()) (var ()) (expr ()))
    | 2 ->
      let v = var () in
      Buffer.add_string buf
        (Printf.sprintf "  for i%d in 0..%d { %s = %s + 1.0; }\n" (Rng.int rng 1000)
           (1 + Rng.int rng 4) v v)
    | _ ->
      Buffer.add_string buf
        (Printf.sprintf "  res[%d] = %s;\n" (Rng.int rng 4) (expr ()))
  done;
  Buffer.add_string buf (Printf.sprintf "  res[0] = %s;\n" (expr ()));
  Buffer.add_string buf "}\nschedule { call k(inp, res); }\n";
  Buffer.contents buf

let prop_optimizer_preserves_semantics =
  QCheck2.Test.make ~count:60 ~long_factor:100 ~name:"optimizer preserves golden outputs"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let src = gen_program seed in
      match (Frontend.compile ~optimize:false src, Frontend.compile ~optimize:true src) with
      | Ok raw, Ok opt -> (
        (* Random 'for' statements can redeclare a loop variable; skip
           programs the frontend rejects rather than failing. *)
        try outputs_equal (Oracle.outputs (Oracle.golden_run raw)) (Golden.outputs (Golden.run opt))
        with Failure _ -> true)
      | Error _, _ | _, Error _ -> QCheck2.assume_fail ())

let prop_optimized_kernels_validate =
  QCheck2.Test.make ~count:60 ~name:"optimized kernels stay valid"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let src = gen_program seed in
      match Frontend.compile ~optimize:true src with
      | Ok p ->
        List.for_all
          (fun k -> Result.is_ok (Kernel.validate k))
          p.Program.kernels
      | Error _ -> QCheck2.assume_fail ())

let () =
  Alcotest.run "opt"
    [
      ( "passes",
        [
          Alcotest.test_case "constant fold arith" `Quick test_constant_fold_arith;
          Alcotest.test_case "div-by-zero not folded" `Quick
            test_constant_fold_keeps_trapping_div;
          Alcotest.test_case "reset at joins" `Quick test_constant_fold_resets_at_targets;
          Alcotest.test_case "branch folding" `Quick test_branch_folding;
          Alcotest.test_case "copyprop + dce" `Quick test_copy_propagation_and_dce;
          Alcotest.test_case "dce keeps stores" `Quick test_dce_keeps_stores;
          Alcotest.test_case "unreachable elimination" `Quick test_unreachable_elimination;
          Alcotest.test_case "simplify jumps" `Quick test_simplify_jumps;
          Alcotest.test_case "benchmarks shrink" `Quick test_optimize_shrinks_benchmarks;
          Alcotest.test_case "benchmark code pinned" `Quick test_benchmark_code_pinned;
          Alcotest.test_case "random kernels pinned" `Quick test_random_kernels_pinned;
        ] );
      ( "liveness",
        [
          QCheck_alcotest.to_alcotest prop_liveness_matches_oracle;
          Alcotest.test_case "benchmark kernels equal the oracle" `Quick
            test_liveness_benchmarks;
        ] );
      ( "differential",
        [
          Alcotest.test_case "benchmarks bit-identical" `Quick test_differential_benchmarks;
          QCheck_alcotest.to_alcotest prop_optimizer_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_optimized_kernels_validate;
        ] );
    ]
