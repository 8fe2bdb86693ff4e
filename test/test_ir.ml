(* Tests for the MiniVM IR: values, instruction metadata, kernel and
   program validation, and content hashing. *)

open Ff_ir
module Hashing = Ff_support.Hashing

let check_float = Alcotest.(check (float 1e-9))

(* --- values -------------------------------------------------------------- *)

let test_value_ty () =
  Alcotest.(check bool) "int ty" true (Value.ty_equal (Value.ty (Value.Int 3L)) Value.TInt);
  Alcotest.(check bool) "float ty" true
    (Value.ty_equal (Value.ty (Value.Float 1.0)) Value.TFloat)

let test_value_flip_preserves_type () =
  for b = 0 to 63 do
    let i = Value.flip_bit (Value.Int 5L) b in
    let f = Value.flip_bit (Value.Float 2.0) b in
    Alcotest.(check bool) "int stays int" true (Value.ty_equal (Value.ty i) Value.TInt);
    Alcotest.(check bool) "float stays float" true
      (Value.ty_equal (Value.ty f) Value.TFloat)
  done

let test_value_flip_involution () =
  let v = Value.Float 3.75 in
  for b = 0 to 63 do
    Alcotest.(check bool) "double flip restores" true
      (Value.equal v (Value.flip_bit (Value.flip_bit v b) b))
  done

let test_value_equal_nan () =
  let nan_v = Value.Float Float.nan in
  Alcotest.(check bool) "NaN equals itself (by bits)" true (Value.equal nan_v nan_v)

let test_value_equal_signed_zero () =
  Alcotest.(check bool) "-0. differs from 0." false
    (Value.equal (Value.Float (-0.0)) (Value.Float 0.0))

let test_value_equal_cross_type () =
  Alcotest.(check bool) "int vs float" false (Value.equal (Value.Int 0L) (Value.Float 0.0))

let test_abs_diff_int () =
  check_float "int diff" 5.0 (Value.abs_diff (Value.Int 2L) (Value.Int 7L));
  check_float "int diff zero" 0.0 (Value.abs_diff (Value.Int 2L) (Value.Int 2L))

let test_abs_diff_int_min () =
  (* The difference may be Int64.min_int; the magnitude must stay positive. *)
  let d = Value.abs_diff (Value.Int Int64.min_int) (Value.Int 0L) in
  Alcotest.(check bool) "min_int magnitude positive" true (d > 0.0)

let test_abs_diff_float () =
  check_float "float diff" 1.5 (Value.abs_diff (Value.Float 2.0) (Value.Float 0.5));
  check_float "nan diff is infinite" infinity
    (Value.abs_diff (Value.Float Float.nan) (Value.Float 1.0))

let test_abs_diff_float_same_nan_is_zero () =
  check_float "identical NaN bits: no SDC" 0.0
    (Value.abs_diff (Value.Float Float.nan) (Value.Float Float.nan))

let test_abs_diff_type_mismatch () =
  Alcotest.check_raises "mismatch raises" (Invalid_argument "Value.abs_diff: type mismatch")
    (fun () -> ignore (Value.abs_diff (Value.Int 1L) (Value.Float 1.0)))

let test_is_finite () =
  Alcotest.(check bool) "int finite" true (Value.is_finite (Value.Int Int64.max_int));
  Alcotest.(check bool) "inf not finite" false (Value.is_finite (Value.Float infinity));
  Alcotest.(check bool) "nan not finite" false (Value.is_finite (Value.Float Float.nan))

(* --- instructions --------------------------------------------------------- *)

let test_srcs_dst () =
  let open Instr in
  Alcotest.(check (list int)) "ibin srcs" [ 1; 2 ] (srcs (Ibin (Iadd, 0, 1, 2)));
  Alcotest.(check (option int)) "ibin dst" (Some 0) (dst (Ibin (Iadd, 0, 1, 2)));
  Alcotest.(check (list int)) "store srcs" [ 3; 4 ] (srcs (Store (0, 3, 4)));
  Alcotest.(check (option int)) "store no dst" None (dst (Store (0, 3, 4)));
  Alcotest.(check (list int)) "select srcs" [ 5; 6; 7 ] (srcs (Select (1, 5, 6, 7)));
  Alcotest.(check (list int)) "br srcs" [ 9 ] (srcs (Br (9, 0, 1)));
  Alcotest.(check (list int)) "halt srcs" [] (srcs Halt);
  Alcotest.(check (option int)) "mov dst" (Some 2) (dst (Mov (2, 3)))

let test_labels_terminator () =
  let open Instr in
  Alcotest.(check (list int)) "jmp labels" [ 7 ] (labels (Jmp 7));
  Alcotest.(check (list int)) "br labels" [ 1; 2 ] (labels (Br (0, 1, 2)));
  Alcotest.(check bool) "halt terminator" true (is_terminator Halt);
  Alcotest.(check bool) "add not terminator" false (is_terminator (Ibin (Iadd, 0, 0, 0)))

let test_map_srcs () =
  let open Instr in
  let bump r = r + 10 in
  Alcotest.(check bool) "ibin remapped" true
    (equal (Ibin (Imul, 0, 11, 12)) (map_srcs bump (Ibin (Imul, 0, 1, 2))));
  Alcotest.(check bool) "dst untouched" true
    (equal (Mov (5, 16)) (map_srcs bump (Mov (5, 6))));
  Alcotest.(check bool) "labels untouched" true
    (equal (Br (13, 1, 2)) (map_srcs bump (Br (3, 1, 2))))

let test_instr_hash_discriminates () =
  let h i =
    let acc = Hashing.create () in
    Instr.hash_fold acc i;
    Hashing.value acc
  in
  let open Instr in
  Alcotest.(check bool) "opcode matters" false
    (Int64.equal (h (Ibin (Iadd, 0, 1, 2))) (h (Ibin (Isub, 0, 1, 2))));
  Alcotest.(check bool) "register matters" false
    (Int64.equal (h (Mov (0, 1))) (h (Mov (0, 2))));
  Alcotest.(check bool) "immediate matters" false
    (Int64.equal (h (Iconst (0, 1L))) (h (Iconst (0, 2L))))

(* --- kernels ---------------------------------------------------------------- *)

let kernel ?(params = [ Kernel.Buffer ("buf", Value.TFloat, Kernel.InOut) ]) ?(nregs = 4)
    code =
  { Kernel.name = "k"; params; code = Array.of_list code; nregs }

let expect_invalid msg k =
  match Kernel.validate k with
  | Ok () -> Alcotest.failf "expected %s to be rejected" msg
  | Error _ -> ()

let test_kernel_validate_ok () =
  let k =
    kernel [ Instr.Iconst (0, 0L); Instr.Load (1, 0, 0); Instr.Store (0, 0, 1); Instr.Halt ]
  in
  match Kernel.validate k with
  | Ok () -> ()
  | Error { Kernel.message; _ } -> Alcotest.failf "unexpected error: %s" message

let test_kernel_validate_empty () = expect_invalid "empty kernel" (kernel [])

let test_kernel_validate_no_terminator () =
  match Kernel.validate (kernel [ Instr.Iconst (0, 0L) ]) with
  | Error { Kernel.instr_index = Some 0; message = "kernel does not end with a terminator" }
    ->
    ()
  | _ -> Alcotest.fail "missing terminator: expected an error at the last instruction"

let test_kernel_validate_bad_register () =
  expect_invalid "register out of range" (kernel [ Instr.Mov (9, 0); Instr.Halt ])

let test_kernel_validate_bad_label () =
  expect_invalid "label out of range" (kernel [ Instr.Jmp 5; Instr.Halt ])

let test_kernel_validate_bad_buffer_slot () =
  expect_invalid "buffer slot out of range"
    (kernel [ Instr.Iconst (0, 0L); Instr.Load (1, 3, 0); Instr.Halt ])

let test_kernel_validate_store_to_in () =
  expect_invalid "store to In buffer"
    (kernel
       ~params:[ Kernel.Buffer ("buf", Value.TFloat, Kernel.In) ]
       [ Instr.Iconst (0, 0L); Instr.Store (0, 0, 0); Instr.Halt ])

let test_kernel_hash_stable_and_sensitive () =
  let k1 = kernel [ Instr.Iconst (0, 1L); Instr.Halt ] in
  let k2 = kernel [ Instr.Iconst (0, 1L); Instr.Halt ] in
  let k3 = kernel [ Instr.Iconst (0, 2L); Instr.Halt ] in
  Alcotest.(check int64) "same code same hash" (Kernel.code_hash k1) (Kernel.code_hash k2);
  Alcotest.(check bool) "different code different hash" false
    (Int64.equal (Kernel.code_hash k1) (Kernel.code_hash k3))

let test_kernel_hash_depends_on_signature () =
  let k1 = kernel [ Instr.Halt ] in
  let k2 =
    kernel ~params:[ Kernel.Buffer ("buf", Value.TFloat, Kernel.In) ] [ Instr.Halt ]
  in
  Alcotest.(check bool) "role changes hash" false
    (Int64.equal (Kernel.code_hash k1) (Kernel.code_hash k2))

let test_scalar_buffer_params () =
  let k =
    kernel
      ~params:
        [
          Kernel.Scalar ("n", Value.TInt);
          Kernel.Buffer ("a", Value.TFloat, Kernel.In);
          Kernel.Scalar ("x", Value.TFloat);
          Kernel.Buffer ("b", Value.TInt, Kernel.Out);
        ]
      [ Instr.Halt ]
  in
  Alcotest.(check (list (pair string bool)))
    "scalars in order"
    [ ("n", true); ("x", false) ]
    (List.map (fun (n, ty) -> (n, ty = Value.TInt)) (Kernel.scalar_params k));
  Alcotest.(check (list string)) "buffers in order" [ "a"; "b" ]
    (List.map (fun (n, _, _) -> n) (Kernel.buffer_params k))

(* --- programs --------------------------------------------------------------- *)

let simple_program () =
  let k =
    {
      Kernel.name = "copy";
      params =
        [
          Kernel.Buffer ("src", Value.TFloat, Kernel.In);
          Kernel.Buffer ("dst", Value.TFloat, Kernel.Out);
        ];
      code =
        [|
          Instr.Iconst (0, 0L); Instr.Load (1, 0, 0); Instr.Store (1, 0, 1); Instr.Halt;
        |];
      nregs = 2;
    }
  in
  {
    Program.kernels = [ k ];
    buffers =
      [
        {
          Program.buf_name = "a";
          buf_ty = Value.TFloat;
          buf_size = 1;
          buf_init = [| Value.Float 1.0 |];
          buf_is_output = false;
        };
        {
          Program.buf_name = "b";
          buf_ty = Value.TFloat;
          buf_size = 1;
          buf_init = [| Value.Float 0.0 |];
          buf_is_output = true;
        };
      ];
    schedule =
      [
        {
          Program.callee = "copy";
          args = [ Program.Abuf 0; Program.Abuf 1 ];
          call_label = "copy";
        };
      ];
  }

let test_program_validate_ok () =
  match Program.validate (simple_program ()) with
  | Ok () -> ()
  | Error { Program.context; message } -> Alcotest.failf "%s: %s" context message

let test_program_validate_unknown_kernel () =
  let p = simple_program () in
  let p =
    {
      p with
      Program.schedule = [ { Program.callee = "nope"; args = []; call_label = "x" } ];
    }
  in
  Alcotest.(check bool) "unknown kernel rejected" true
    (Result.is_error (Program.validate p))

let test_program_validate_arity () =
  let p = simple_program () in
  let p =
    {
      p with
      Program.schedule =
        [ { Program.callee = "copy"; args = [ Program.Abuf 0 ]; call_label = "x" } ];
    }
  in
  Alcotest.(check bool) "arity mismatch rejected" true
    (Result.is_error (Program.validate p))

let test_program_validate_bad_init_length () =
  let p = simple_program () in
  let buffers =
    match p.Program.buffers with
    | b :: rest -> { b with Program.buf_init = [||] } :: rest
    | [] -> assert false
  in
  Alcotest.(check bool) "bad initializer rejected" true
    (Result.is_error (Program.validate { p with Program.buffers }))

let test_program_validate_needs_output () =
  let p = simple_program () in
  let buffers =
    List.map (fun b -> { b with Program.buf_is_output = false }) p.Program.buffers
  in
  Alcotest.(check bool) "no output rejected" true
    (Result.is_error (Program.validate { p with Program.buffers }))

let test_program_buffer_args_roles () =
  let p = simple_program () in
  let call = List.hd p.Program.schedule in
  Alcotest.(check (list (pair int bool)))
    "bindings with writability"
    [ (0, false); (1, true) ]
    (List.map
       (fun (idx, role) -> (idx, Kernel.role_writable role))
       (Program.buffer_args p call))

let test_program_output_buffers () =
  let p = simple_program () in
  Alcotest.(check (list int)) "output indices" [ 1 ]
    (List.map fst (Program.output_buffers p))

(* --- listings --------------------------------------------------------------- *)

(* What [fastflip compile] prints ([Program.pp]) for all 15 built-in
   benchmark versions, pinned by hash and size: any change to the
   listing format, or to what the compiler emits, shows up here. *)
let test_listing_of_builtins () =
  let h, bytes =
    List.fold_left
      (fun acc (b : Ff_benchmarks.Defs.t) ->
        List.fold_left
          (fun (h, bytes) v ->
            let p = Ff_lang.Frontend.compile_exn (b.Ff_benchmarks.Defs.source v) in
            let listing = Format.asprintf "%a" Program.pp p in
            ( Hashing.combine h (Hashing.of_string listing),
              bytes + String.length listing ))
          acc Ff_benchmarks.Defs.all_versions)
      (0L, 0) Ff_benchmarks.Registry.all
  in
  Alcotest.(check int) "listing bytes" 99561 bytes;
  Alcotest.(check string) "listing hash" "0x733c12f079584f27"
    (Printf.sprintf "0x%016Lx" h)

(* A float constant prints as [%h], or by name for the infinities; a NaN
   prints its full bit pattern, so the listing tells NaNs apart. *)
let test_listing_of_nonfinite_fconst () =
  List.iter
    (fun (v, expected) ->
      let k =
        { Kernel.name = "k"; params = []; code = [| Instr.Fconst (0, v); Instr.Halt |];
          nregs = 1 }
      in
      Alcotest.(check string) expected
        (Printf.sprintf "kernel k()  ; 1 regs\n    0: r0 <- fconst %s\n    1: halt\n"
           expected)
        (Format.asprintf "%a" Kernel.pp k))
    [
      (Float.infinity, "infinity");
      (Float.neg_infinity, "-infinity");
      (Int64.float_of_bits 0x7ff8000000000001L, "nan:0x7ff8000000000001");
      (Int64.float_of_bits 0xfff8000000000001L, "nan:0xfff8000000000001");
      (Int64.float_of_bits 0x7ff0000000000001L, "nan:0x7ff0000000000001");
    ]

let () =
  Alcotest.run "ir"
    [
      ( "value",
        [
          Alcotest.test_case "ty" `Quick test_value_ty;
          Alcotest.test_case "flip preserves type" `Quick test_value_flip_preserves_type;
          Alcotest.test_case "flip involution" `Quick test_value_flip_involution;
          Alcotest.test_case "NaN self-equal" `Quick test_value_equal_nan;
          Alcotest.test_case "signed zero" `Quick test_value_equal_signed_zero;
          Alcotest.test_case "cross-type equal" `Quick test_value_equal_cross_type;
          Alcotest.test_case "abs_diff int" `Quick test_abs_diff_int;
          Alcotest.test_case "abs_diff min_int" `Quick test_abs_diff_int_min;
          Alcotest.test_case "abs_diff float" `Quick test_abs_diff_float;
          Alcotest.test_case "abs_diff same NaN" `Quick test_abs_diff_float_same_nan_is_zero;
          Alcotest.test_case "abs_diff mismatch" `Quick test_abs_diff_type_mismatch;
          Alcotest.test_case "is_finite" `Quick test_is_finite;
        ] );
      ( "instr",
        [
          Alcotest.test_case "srcs/dst" `Quick test_srcs_dst;
          Alcotest.test_case "labels/terminator" `Quick test_labels_terminator;
          Alcotest.test_case "map_srcs" `Quick test_map_srcs;
          Alcotest.test_case "hash discriminates" `Quick test_instr_hash_discriminates;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "validate ok" `Quick test_kernel_validate_ok;
          Alcotest.test_case "empty rejected" `Quick test_kernel_validate_empty;
          Alcotest.test_case "no terminator" `Quick test_kernel_validate_no_terminator;
          Alcotest.test_case "bad register" `Quick test_kernel_validate_bad_register;
          Alcotest.test_case "bad label" `Quick test_kernel_validate_bad_label;
          Alcotest.test_case "bad buffer slot" `Quick test_kernel_validate_bad_buffer_slot;
          Alcotest.test_case "store to In" `Quick test_kernel_validate_store_to_in;
          Alcotest.test_case "hash stable/sensitive" `Quick
            test_kernel_hash_stable_and_sensitive;
          Alcotest.test_case "hash covers signature" `Quick
            test_kernel_hash_depends_on_signature;
          Alcotest.test_case "param accessors" `Quick test_scalar_buffer_params;
        ] );
      ( "listing",
        [
          Alcotest.test_case "built-in benchmarks" `Quick test_listing_of_builtins;
          Alcotest.test_case "non-finite fconst" `Quick test_listing_of_nonfinite_fconst;
        ] );
      ( "program",
        [
          Alcotest.test_case "validate ok" `Quick test_program_validate_ok;
          Alcotest.test_case "unknown kernel" `Quick test_program_validate_unknown_kernel;
          Alcotest.test_case "arity" `Quick test_program_validate_arity;
          Alcotest.test_case "bad init" `Quick test_program_validate_bad_init_length;
          Alcotest.test_case "needs output" `Quick test_program_validate_needs_output;
          Alcotest.test_case "buffer args roles" `Quick test_program_buffer_args_roles;
          Alcotest.test_case "output buffers" `Quick test_program_output_buffers;
        ] );
    ]
