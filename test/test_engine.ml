(* Differential tests: the unboxed engine against the boxed oracle.

   The unboxed engine must be bit-identical to Machine.exec — same
   statuses, executed counts, buffer contents (by Value.equal, i.e. raw
   bits), and traces — on arbitrary kernels, inputs, injections, and
   burst widths, including runs that trap or exhaust their budget. The
   replay/campaign layers must then classify identically through either
   engine at any pool width. *)

open Ff_ir
open Ff_vm
module Frontend = Ff_lang.Frontend
module Pool = Ff_support.Pool
open Ff_inject

let compile src =
  match Frontend.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

(* --- generators ------------------------------------------------------------ *)

open Rand_kernel

let gen_inputs =
  QCheck2.Gen.(
    let fbuf = list_size (int_range 1 4) (map (fun x -> Value.Float x) gen_float) in
    let ibuf = list_size (int_range 1 4) (map (fun w -> Value.Int w) gen_int64) in
    map3
      (fun n x (fb, ib) ->
        ([ Value.Int n; Value.Float x ], [| Array.of_list fb; Array.of_list ib |]))
      gen_int64 gen_float (pair fbuf ibuf))

let gen_injection =
  QCheck2.Gen.(
    map3
      (fun at_dyn op bit ->
        let operand = if op >= 3 then Machine.Odst else Machine.Osrc op in
        { Machine.at_dyn; operand; bit })
      (int_range 0 40) (int_range 0 4) (int_range 0 63))

(* --- differential runner --------------------------------------------------- *)

type outcome = {
  o_status : Machine.status;
  o_executed : int;
  o_trace : int array;
  o_buffers : Value.t array array;
  o_exn : string option;
}

let run_engine exec ~scalars ~buffers ?injection ?burst () =
  let bufs = Array.map Array.copy buffers in
  let trace = Trace.create () in
  match exec ~scalars ~buffers:bufs ?injection ?burst ~trace () with
  | (run : Machine.run) ->
    {
      o_status = run.Machine.status;
      o_executed = run.Machine.executed;
      o_trace = Trace.to_array trace;
      o_buffers = bufs;
      o_exn = None;
    }
  | exception e ->
    {
      o_status = Machine.Finished;
      o_executed = -1;
      o_trace = [||];
      o_buffers = bufs;
      o_exn = Some (Printexc.to_string e);
    }

let buffers_bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ba bb ->
         Array.length ba = Array.length bb && Array.for_all2 Value.equal ba bb)
       a b

let outcomes_agree a b =
  a.o_exn = b.o_exn
  && a.o_status = b.o_status
  && a.o_executed = b.o_executed
  && a.o_trace = b.o_trace
  && buffers_bit_equal a.o_buffers b.o_buffers

let differential ?injection ?burst kernel ~scalars ~buffers ~budget =
  let decoded = Decode.of_kernel kernel in
  let boxed =
    run_engine
      (fun ~scalars ~buffers ?injection ?burst ~trace () ->
        Machine.exec kernel ~scalars ~buffers ~budget ~decoded ?injection ?burst ~trace ())
      ~scalars ~buffers ?injection ?burst ()
  in
  let unboxed =
    run_engine
      (fun ~scalars ~buffers ?injection ?burst ~trace () ->
        Unboxed.exec_values decoded ~scalars ~buffers ~budget ?injection ?burst ~trace ())
      ~scalars ~buffers ?injection ?burst ()
  in
  if not (outcomes_agree boxed unboxed) then
    QCheck2.Test.fail_reportf
      "engines diverged on %s:@.boxed:   status %a, executed %d, exn %s@.unboxed: \
       status %a, executed %d, exn %s"
      kernel.Kernel.name Machine.pp_status boxed.o_status boxed.o_executed
      (Option.value ~default:"-" boxed.o_exn)
      Machine.pp_status unboxed.o_status unboxed.o_executed
      (Option.value ~default:"-" unboxed.o_exn);
  true

(* --- properties ------------------------------------------------------------ *)

let prop_plain =
  QCheck2.Test.make ~count:400 ~name:"unboxed ≡ boxed on random kernels"
    QCheck2.Gen.(pair gen_kernel gen_inputs)
    (fun (kernel, (scalars, buffers)) ->
      differential kernel ~scalars ~buffers ~budget:256)

let prop_injected =
  QCheck2.Test.make ~count:600 ~name:"unboxed ≡ boxed under injection and bursts"
    QCheck2.Gen.(
      pair (pair gen_kernel gen_inputs) (pair gen_injection (int_range 1 70)))
    (fun ((kernel, (scalars, buffers)), (injection, burst)) ->
      differential kernel ~scalars ~buffers ~budget:256 ~injection ~burst)

(* --- directed traps -------------------------------------------------------- *)

let check_trap name kernel ~scalars ~buffers trap =
  let decoded = Decode.of_kernel kernel in
  let b1 = Array.map Array.copy buffers and b2 = Array.map Array.copy buffers in
  let r1 = Machine.exec kernel ~scalars ~buffers:b1 ~budget:1000 () in
  let r2 = Unboxed.exec_values decoded ~scalars ~buffers:b2 ~budget:1000 () in
  Alcotest.(check bool)
    (name ^ ": boxed traps")
    true
    (r1.Machine.status = Machine.Trapped trap);
  Alcotest.(check bool)
    (name ^ ": unboxed traps identically")
    true
    (r2.Machine.status = r1.Machine.status && r2.Machine.executed = r1.Machine.executed)

let test_trap_parity () =
  let oob =
    {
      Kernel.name = "oob";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.Out) ];
      code = [| Instr.Iconst (0, 5L); Instr.Load (1, 0, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  check_trap "out of bounds" oob ~scalars:[] ~buffers:[| [| Value.Float 0.0 |] |]
    Machine.Out_of_bounds;
  let div0 =
    {
      Kernel.name = "div0";
      params = [];
      code =
        [|
          Instr.Iconst (0, 1L); Instr.Iconst (1, 0L); Instr.Ibin (Instr.Idiv, 2, 0, 1);
          Instr.Halt;
        |];
      nregs = 3;
    }
  in
  check_trap "div by zero" div0 ~scalars:[] ~buffers:[||] Machine.Div_by_zero;
  let conv =
    {
      Kernel.name = "conv";
      params = [];
      code = [| Instr.Fconst (0, Float.nan); Instr.Cast (Instr.Ftoi, 1, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  check_trap "invalid conversion" conv ~scalars:[] ~buffers:[||] Machine.Invalid_conversion;
  let confused =
    {
      Kernel.name = "confused";
      params = [];
      code = [| Instr.Fbin (Instr.Fadd, 1, 0, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  check_trap "type confusion" confused ~scalars:[] ~buffers:[||] Machine.Type_confusion

let test_argument_checking_parity () =
  let k =
    {
      Kernel.name = "s";
      params = [ Kernel.Scalar ("n", Value.TInt) ];
      code = [| Instr.Halt |];
      nregs = 1;
    }
  in
  let d = Decode.of_kernel k in
  Alcotest.check_raises "missing scalar"
    (Invalid_argument "Machine.exec: scalar arity mismatch") (fun () ->
      ignore (Unboxed.exec_values d ~scalars:[] ~buffers:[||] ~budget:10 ()));
  Alcotest.check_raises "wrong scalar type"
    (Invalid_argument "Machine.exec: scalar type mismatch") (fun () ->
      ignore (Unboxed.exec_values d ~scalars:[ Value.Float 1.0 ] ~buffers:[||] ~budget:10 ()))

(* --- replay and campaign parity -------------------------------------------- *)

let pipeline_src =
  {|buffer a : float[3] = { 1.0, 2.0, -0.5 };
buffer mid : float[3] = zeros;
output buffer res : float[3] = zeros;
kernel double(in a: float[], out mid: float[]) {
  for i in 0..3 { mid[i] = a[i] * 2.0; }
}
kernel inc(in mid: float[], out res: float[]) {
  for i in 0..3 { res[i] = mid[i] + 1.0; }
}
schedule {
  call double(a, mid);
  call inc(mid, res);
}|}

let test_replay_parity () =
  let g = Golden.run (compile pipeline_src) in
  let checked = ref 0 in
  Array.iter
    (fun (section : Golden.section_run) ->
      let last = section.Golden.dyn_count - 1 in
      List.iter
        (fun at_dyn ->
          List.iter
            (fun operand ->
              List.iter
                (fun bit ->
                  List.iter
                    (fun burst ->
                      let injection = Replay.Fault { Machine.at_dyn; operand; bit } in
                      let boxed =
                        Replay.run_section ~burst ~engine:Replay.Boxed g section
                          injection ~timeout_factor:5.0
                      in
                      let unboxed =
                        Replay.run_section ~burst ~engine:Replay.Unboxed g section
                          injection ~timeout_factor:5.0
                      in
                      if Stdlib.compare boxed unboxed <> 0 then
                        Alcotest.failf "section replay diverged at dyn %d bit %d burst %d"
                          at_dyn bit burst;
                      let pb =
                        Replay.run_to_end ~burst ~engine:Replay.Boxed g
                          ~from_section:section.Golden.section_index injection
                          ~timeout_factor:5.0
                      in
                      let pu =
                        Replay.run_to_end ~burst ~engine:Replay.Unboxed g
                          ~from_section:section.Golden.section_index injection
                          ~timeout_factor:5.0
                      in
                      if Stdlib.compare pb pu <> 0 then
                        Alcotest.failf "program replay diverged at dyn %d bit %d burst %d"
                          at_dyn bit burst;
                      incr checked)
                    [ 1; 2; 65 ])
                [ 0; 31; 63 ])
            [ Machine.Osrc 0; Machine.Osrc 1; Machine.Odst ])
        [ 0; last / 2; last ])
    g.Golden.sections;
  Alcotest.(check bool) "swept a real grid" true (!checked >= 100)

(* [run_section_capture]: the boxed engine's capture is the oracle for
   the unboxed one. Register faults and memory flips (one makes an input
   infinite, one is out of range) must give equal replays and bit-equal
   captured buffers, in request order, or [None] from both. Every
   program buffer is requested, bound to the section or not, after a
   replay to the end has dirtied this domain's workspace. *)
let test_capture_parity () =
  let g = Golden.run (compile pipeline_src) in
  let checked = ref 0 in
  let dirty = Replay.Mem_flip { Replay.mf_buffer = 0; mf_elem = 0; mf_bits = [ 62 ] } in
  Array.iter
    (fun (section : Golden.section_run) ->
      let last = section.Golden.dyn_count - 1 in
      let all = List.init (Array.length g.Golden.final_state) Fun.id in
      let buffers = Array.of_list (all @ List.rev all) in
      let faults =
        List.concat_map
          (fun at_dyn ->
            List.map
              (fun (operand, bit) -> Replay.Fault { Machine.at_dyn; operand; bit })
              [ (Machine.Odst, 0); (Machine.Osrc 0, 62); (Machine.Osrc 1, 63) ])
          [ 0; last / 2; last ]
      in
      let flips =
        List.concat_map
          (fun mf_buffer ->
            List.map
              (fun (mf_elem, mf_bits) -> Replay.Mem_flip { Replay.mf_buffer; mf_elem; mf_bits })
              [ (0, [ 62 ]); (1, [ 0; 51 ]); (2, [ 63 ]); (7, [ 1 ]) ])
          [ 0; 1; 2; 3 ]
      in
      List.iter
        (fun injection ->
          List.iter
            (fun burst ->
              let run engine =
                ignore (Replay.run_to_end g ~from_section:0 dirty ~timeout_factor:5.0);
                Replay.run_section_capture ~burst ~engine g section injection
                  ~timeout_factor:5.0 ~buffers
              in
              let rb, cb = run Replay.Boxed and ru, cu = run Replay.Unboxed in
              if Stdlib.compare rb ru <> 0 then
                Alcotest.failf "section %d: replays diverged (burst %d)"
                  section.Golden.section_index burst;
              let same a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b in
              (match (cb, cu) with
              | None, None -> ()
              | Some b, Some u when Array.length b = Array.length u && Array.for_all2 same b u ->
                ()
              | _ ->
                Alcotest.failf "section %d: captures diverged (burst %d)"
                  section.Golden.section_index burst);
              incr checked)
            [ 1; 2 ])
        (faults @ flips))
    g.Golden.sections;
  Alcotest.(check int) "replays compared" 100 !checked

(* Prover off so every class actually exercises the engines under test. *)
let campaign_config =
  {
    Campaign.bits = Site.Bit_list [ 0; 21; 42; 63 ];
    timeout_factor = 5.0;
    model = Fault_model.default;
    prove = Prover.off;
  }

let test_campaign_parity_across_pools () =
  let g = Golden.run (compile pipeline_src) in
  let serial_boxed =
    Campaign.run_section ~engine:Replay.Boxed g ~section_index:0 campaign_config
  in
  List.iter
    (fun width ->
      Pool.with_pool ~domains:width @@ fun pool ->
      let unboxed =
        Campaign.run_section ~pool ~engine:Replay.Unboxed g ~section_index:0
          campaign_config
      in
      if Stdlib.compare serial_boxed unboxed <> 0 then
        Alcotest.failf "campaign diverged at pool width %d" width)
    [ 1; 4 ];
  let baseline_boxed = Campaign.run_baseline ~engine:Replay.Boxed g campaign_config in
  Pool.with_pool ~domains:4 @@ fun pool ->
  let baseline_unboxed =
    Campaign.run_baseline ~pool ~engine:Replay.Unboxed g campaign_config
  in
  Alcotest.(check bool) "baseline campaigns agree" true
    (Stdlib.compare baseline_boxed baseline_unboxed = 0)

let test_final_outcomes_classes_reuse () =
  let g = Golden.run (compile pipeline_src) in
  let campaign = Campaign.run_section g ~section_index:0 campaign_config in
  let classes = Array.map fst campaign.Campaign.s_classes in
  let fresh, fresh_work =
    Campaign.final_outcomes_for_section g ~section_index:0 campaign_config
  in
  let reused, reused_work =
    Campaign.final_outcomes_for_section ~classes g ~section_index:0 campaign_config
  in
  Alcotest.(check bool) "precomputed classes give identical outcomes" true
    (Stdlib.compare fresh reused = 0);
  Alcotest.(check int) "identical work" fresh_work reused_work

let test_workspace_reuse_is_stateless () =
  (* The domain-local scratch is reused across replays; a replay must not
     observe residue from a previous one (here: a prior injected run that
     trapped mid-section with corrupted registers and buffers). *)
  let g = Golden.run (compile pipeline_src) in
  let section = g.Golden.sections.(0) in
  let nasty = Replay.Fault { Machine.at_dyn = 2; operand = Machine.Osrc 0; bit = 62 } in
  let benign = Replay.Fault { Machine.at_dyn = 0; operand = Machine.Odst; bit = 0 } in
  let first =
    Replay.run_section ~engine:Replay.Unboxed g section benign ~timeout_factor:5.0
  in
  ignore
    (Replay.run_section ~engine:Replay.Unboxed g section nasty ~timeout_factor:5.0);
  let again =
    Replay.run_section ~engine:Replay.Unboxed g section benign ~timeout_factor:5.0
  in
  Alcotest.(check bool) "same result after scratch reuse" true
    (Stdlib.compare first again = 0)

(* --- decode validation ----------------------------------------------------- *)

let test_decode_validation () =
  let base =
    {
      Kernel.name = "k";
      params = [];
      code = [| Instr.Halt |];
      nregs = 1;
    }
  in
  Alcotest.check_raises "empty code" (Invalid_argument "Decode.of_kernel: kernel has no code")
    (fun () -> ignore (Decode.of_kernel { base with Kernel.code = [||] }));
  Alcotest.check_raises "missing terminator"
    (Invalid_argument "Decode.of_kernel: kernel does not end with a terminator") (fun () ->
      ignore (Decode.of_kernel { base with Kernel.code = [| Instr.Iconst (0, 1L) |] }));
  Alcotest.check_raises "register out of range"
    (Invalid_argument "Decode.of_kernel: register out of range") (fun () ->
      ignore
        (Decode.of_kernel
           { base with Kernel.code = [| Instr.Iconst (7, 1L); Instr.Halt |] }));
  Alcotest.check_raises "label out of range"
    (Invalid_argument "Decode.of_kernel: label out of range") (fun () ->
      ignore (Decode.of_kernel { base with Kernel.code = [| Instr.Jmp 9; Instr.Halt |] }));
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Decode.of_kernel: buffer slot out of range") (fun () ->
      ignore
        (Decode.of_kernel
           { base with Kernel.code = [| Instr.Load (0, 3, 0); Instr.Halt |] }))

let test_decode_operand_tables () =
  let k =
    {
      Kernel.name = "ops";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.InOut) ];
      code =
        [|
          Instr.Iconst (0, 0L);
          Instr.Load (1, 0, 0);
          Instr.Select (2, 0, 1, 1);
          Instr.Store (0, 0, 2);
          Instr.Halt;
        |];
      nregs = 3;
    }
  in
  let d = Decode.of_kernel k in
  Alcotest.(check int) "length" 5 (Decode.length d);
  Alcotest.(check (list int)) "store srcs are [index; value]" [ 0; 2 ]
    (Array.to_list (Decode.srcs_at d 3));
  Alcotest.(check int) "select has three sources" 3 (Decode.nsrcs d 2);
  Alcotest.(check int) "store has no destination" (-1) (Decode.dst_at d 3);
  Alcotest.(check int) "halt has no operands" 0 (Decode.noperands d 4);
  Alcotest.(check int) "store operands = srcs" 2 (Decode.noperands d 3);
  Alcotest.(check int) "select operands = srcs + dst" 4 (Decode.noperands d 2)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_plain;
          QCheck_alcotest.to_alcotest prop_injected;
          Alcotest.test_case "trap parity" `Quick test_trap_parity;
          Alcotest.test_case "argument checking parity" `Quick
            test_argument_checking_parity;
        ] );
      ( "replay",
        [
          Alcotest.test_case "replay parity sweep" `Quick test_replay_parity;
          Alcotest.test_case "campaign parity, pool widths 1 and 4" `Quick
            test_campaign_parity_across_pools;
          Alcotest.test_case "final outcomes reuse classes" `Quick
            test_final_outcomes_classes_reuse;
          Alcotest.test_case "workspace reuse is stateless" `Quick
            test_workspace_reuse_is_stateless;
          Alcotest.test_case "capture parity" `Quick test_capture_parity;
        ] );
      ( "decode",
        [
          Alcotest.test_case "validation" `Quick test_decode_validation;
          Alcotest.test_case "operand tables" `Quick test_decode_operand_tables;
        ] );
    ]
