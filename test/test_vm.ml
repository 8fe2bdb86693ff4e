(* VM tests: interpreter semantics, traps, budgets, traces, bitflip
   injection mechanics, golden runs, and both replay modes. *)

open Ff_ir
open Ff_vm
module Frontend = Ff_lang.Frontend

let compile src =
  match Frontend.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

module Str_replace = struct
  let replace_first haystack ~pattern ~with_ =
    let pl = String.length pattern and hl = String.length haystack in
    let rec find i =
      if i + pl > hl then None
      else if String.equal (String.sub haystack i pl) pattern then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> haystack
    | Some i ->
      String.sub haystack 0 i ^ with_ ^ String.sub haystack (i + pl) (hl - i - pl)
end

(* --- machine: direct kernel execution ------------------------------------- *)

let exec_kernel ?injection ?trace ?(budget = 10_000) kernel ~scalars ~buffers =
  Machine.exec kernel ~scalars ~buffers ~budget ?injection ?trace ()

let add_kernel =
  {
    Kernel.name = "add";
    params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.InOut) ];
    code =
      [|
        Instr.Iconst (0, 0L);
        Instr.Load (1, 0, 0);
        Instr.Fconst (2, 1.0);
        Instr.Fbin (Instr.Fadd, 3, 1, 2);
        Instr.Store (0, 0, 3);
        Instr.Halt;
      |];
    nregs = 4;
  }

let test_machine_basic () =
  let buffers = [| [| Value.Float 41.0 |] |] in
  let run = exec_kernel add_kernel ~scalars:[] ~buffers in
  Alcotest.(check bool) "finished" true (run.Machine.status = Machine.Finished);
  Alcotest.(check int) "six instructions" 6 run.Machine.executed;
  Alcotest.(check (float 0.0)) "42" 42.0
    (match buffers.(0).(0) with Value.Float f -> f | Value.Int _ -> nan)

let test_machine_trace () =
  let buffers = [| [| Value.Float 0.0 |] |] in
  let trace = Trace.create () in
  ignore (exec_kernel add_kernel ~scalars:[] ~buffers ~trace);
  Alcotest.(check (list int)) "trace is pc sequence" [ 0; 1; 2; 3; 4; 5 ]
    (Array.to_list (Trace.to_array trace))

let test_machine_budget () =
  let spin =
    {
      Kernel.name = "spin";
      params = [];
      code = [| Instr.Jmp 0 |];
      nregs = 1;
    }
  in
  let run = exec_kernel spin ~scalars:[] ~buffers:[||] ~budget:100 in
  Alcotest.(check bool) "timeout" true (run.Machine.status = Machine.Out_of_budget);
  Alcotest.(check int) "charged full budget" 100 run.Machine.executed

let trap_of_run run =
  match run.Machine.status with
  | Machine.Trapped t -> Some t
  | Machine.Finished | Machine.Out_of_budget -> None

let test_machine_traps () =
  let oob =
    {
      Kernel.name = "oob";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.Out) ];
      code = [| Instr.Iconst (0, 5L); Instr.Load (1, 0, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  let run = exec_kernel oob ~scalars:[] ~buffers:[| [| Value.Float 0.0 |] |] in
  Alcotest.(check bool) "oob trap" true (trap_of_run run = Some Machine.Out_of_bounds);
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
  let run = exec_kernel div0 ~scalars:[] ~buffers:[||] in
  Alcotest.(check bool) "div0 trap" true (trap_of_run run = Some Machine.Div_by_zero);
  let conv =
    {
      Kernel.name = "conv";
      params = [];
      code = [| Instr.Fconst (0, Float.nan); Instr.Cast (Instr.Ftoi, 1, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  let run = exec_kernel conv ~scalars:[] ~buffers:[||] in
  Alcotest.(check bool) "conversion trap" true
    (trap_of_run run = Some Machine.Invalid_conversion);
  let confused =
    {
      Kernel.name = "confused";
      params = [];
      code = [| Instr.Fbin (Instr.Fadd, 1, 0, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  (* r0 is an uninitialized (Int 0) register read as a float operand. *)
  let run = exec_kernel confused ~scalars:[] ~buffers:[||] in
  Alcotest.(check bool) "type confusion trap" true
    (trap_of_run run = Some Machine.Type_confusion)

let test_machine_negative_index_traps () =
  let k =
    {
      Kernel.name = "neg";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.Out) ];
      code = [| Instr.Iconst (0, -1L); Instr.Load (1, 0, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  let run = exec_kernel k ~scalars:[] ~buffers:[| [| Value.Float 0.0 |] |] in
  Alcotest.(check bool) "negative index traps" true
    (trap_of_run run = Some Machine.Out_of_bounds)

let test_machine_scalar_checking () =
  let k =
    {
      Kernel.name = "s";
      params = [ Kernel.Scalar ("n", Value.TInt) ];
      code = [| Instr.Halt |];
      nregs = 1;
    }
  in
  Alcotest.check_raises "missing scalar" (Invalid_argument "Machine.exec: scalar arity mismatch")
    (fun () -> ignore (exec_kernel k ~scalars:[] ~buffers:[||]));
  Alcotest.check_raises "wrong scalar type"
    (Invalid_argument "Machine.exec: scalar type mismatch") (fun () ->
      ignore (exec_kernel k ~scalars:[ Value.Float 1.0 ] ~buffers:[||]))

let test_injection_dst_flip () =
  (* Flip the sign bit of the Fadd destination: 42.0 becomes -42.0. *)
  let buffers = [| [| Value.Float 41.0 |] |] in
  let injection = { Machine.at_dyn = 3; operand = Machine.Odst; bit = 63 } in
  ignore (exec_kernel add_kernel ~scalars:[] ~buffers ~injection);
  Alcotest.(check (float 0.0)) "sign flipped" (-42.0)
    (match buffers.(0).(0) with Value.Float f -> f | Value.Int _ -> nan)

let test_injection_src_flip_persists () =
  (* Flip bit 1 of the index register source of the Load at dyn 1: the
     register stays corrupted, so the later Store also uses index 2. *)
  let buffers = [| Array.make 4 (Value.Float 7.0) |] in
  let injection = { Machine.at_dyn = 1; operand = Machine.Osrc 0; bit = 1 } in
  ignore (exec_kernel add_kernel ~scalars:[] ~buffers ~injection);
  Alcotest.(check (float 0.0)) "slot 0 untouched" 7.0
    (match buffers.(0).(0) with Value.Float f -> f | Value.Int _ -> nan);
  Alcotest.(check (float 0.0)) "slot 2 updated" 8.0
    (match buffers.(0).(2) with Value.Float f -> f | Value.Int _ -> nan)

let test_injection_masked () =
  (* Flipping a bit of the constant-producing destination then overwriting
     it leaves no trace: inject into r2 of Iconst at dyn 0, but r2 is
     rewritten by Fconst later... use bit flip on dead value. *)
  let k =
    {
      Kernel.name = "masked";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.Out) ];
      code =
        [|
          Instr.Iconst (0, 0L);
          Instr.Fconst (1, 5.0);
          Instr.Fconst (1, 6.0);
          Instr.Store (0, 0, 1);
          Instr.Halt;
        |];
      nregs = 2;
    }
  in
  let buffers = [| [| Value.Float 0.0 |] |] in
  let injection = { Machine.at_dyn = 1; operand = Machine.Odst; bit = 13 } in
  ignore (exec_kernel k ~scalars:[] ~buffers ~injection);
  Alcotest.(check (float 0.0)) "overwritten flip masked" 6.0
    (match buffers.(0).(0) with Value.Float f -> f | Value.Int _ -> nan)

(* --- golden ----------------------------------------------------------------- *)

let pipeline_src =
  {|buffer a : float[2] = { 1.0, 2.0 };
buffer mid : float[2] = zeros;
output buffer res : float[2] = zeros;
kernel double(in a: float[], out mid: float[]) {
  for i in 0..2 { mid[i] = a[i] * 2.0; }
}
kernel inc(in mid: float[], out res: float[]) {
  for i in 0..2 { res[i] = mid[i] + 1.0; }
}
schedule {
  call double(a, mid);
  call inc(mid, res);
}|}

let test_golden_sections () =
  let golden = Golden.run (compile pipeline_src) in
  Alcotest.(check int) "two sections" 2 (Array.length golden.Golden.sections);
  let s0 = golden.Golden.sections.(0) in
  Alcotest.(check int) "dyn count matches trace" s0.Golden.dyn_count
    (Array.length s0.Golden.trace);
  Alcotest.(check int) "total dyn is the sum"
    (golden.Golden.sections.(0).Golden.dyn_count
    + golden.Golden.sections.(1).Golden.dyn_count)
    golden.Golden.total_dyn

let test_golden_entry_snapshots () =
  let golden = Golden.run (compile pipeline_src) in
  let s1 = golden.Golden.sections.(1) in
  (* Section 1's entry snapshot must already contain double's output. *)
  Alcotest.(check (float 0.0)) "mid at s1 entry" 2.0
    (match s1.Golden.entry_state.(1).(0) with Value.Float f -> f | Value.Int _ -> nan);
  (* ... while section 0's entry has the original zeros. *)
  let s0 = golden.Golden.sections.(0) in
  Alcotest.(check (float 0.0)) "mid at s0 entry" 0.0
    (match s0.Golden.entry_state.(1).(0) with Value.Float f -> f | Value.Int _ -> nan)

let test_golden_exit_state () =
  let golden = Golden.run (compile pipeline_src) in
  let exit0 = Golden.exit_state golden 0 in
  Alcotest.(check (float 0.0)) "exit of s0 = entry of s1" 4.0
    (match exit0.(1).(1) with Value.Float f -> f | Value.Int _ -> nan);
  let exit1 = Golden.exit_state golden 1 in
  Alcotest.(check (float 0.0)) "exit of last = final" 5.0
    (match exit1.(2).(1) with Value.Float f -> f | Value.Int _ -> nan)

let test_golden_outputs_and_distance () =
  let golden = Golden.run (compile pipeline_src) in
  (match Golden.outputs golden with
  | [ (idx, name, values) ] ->
    Alcotest.(check int) "output index" 2 idx;
    Alcotest.(check string) "output name" "res" name;
    Alcotest.(check (float 0.0)) "res[0]" 3.0
      (match values.(0) with Value.Float f -> f | Value.Int _ -> nan)
  | _ -> Alcotest.fail "expected one output");
  let copy = Array.map Array.copy golden.Golden.final_state in
  copy.(2).(0) <- Value.Float 3.5;
  Alcotest.(check (float 1e-12)) "distance" 0.5
    (Replay.buffer_distance golden.Golden.final_state.(2) copy.(2))

let test_golden_input_hash_tracks_inputs () =
  let golden1 = Golden.run (compile pipeline_src) in
  let src2 =
    Str_replace.replace_first pipeline_src ~pattern:"{ 1.0, 2.0 }" ~with_:"{ 1.0, 9.0 }"
  in
  (* Changing a's initializer changes section 0's input hash, and section
     1's too (its input flows from section 0's output). *)
  let golden2 = Golden.run (compile src2) in
  Alcotest.(check bool) "s0 input hash differs" false
    (Int64.equal golden1.Golden.sections.(0).Golden.input_hash
       golden2.Golden.sections.(0).Golden.input_hash);
  Alcotest.(check bool) "s1 input hash differs too" false
    (Int64.equal golden1.Golden.sections.(1).Golden.input_hash
       golden2.Golden.sections.(1).Golden.input_hash)

let test_golden_rejects_trapping () =
  let src =
    {|output buffer res : float[1] = zeros;
kernel k(out res: float[]) {
  var z: int = 0;
  res[1 / z] = 1.0;
}
schedule { call k(res); }|}
  in
  match Golden.run (compile src) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "golden run with a trap must fail"

(* --- replay ------------------------------------------------------------------ *)

let golden () = Golden.run (compile pipeline_src)

let test_replay_section_masked () =
  let g = golden () in
  let injection = Replay.Fault { Machine.at_dyn = 0; operand = Machine.Odst; bit = 0 } in
  (* Flipping the loop-bound constant of 'double'... dyn 0 is whatever the
     optimizer placed first; instead inject into a bit of the destination
     and check the result classifies consistently. *)
  let replay = Replay.run_section g g.Golden.sections.(0) injection ~timeout_factor:5.0 in
  match replay.Replay.s_anomaly with
  | Some _ -> ()
  | None ->
    Alcotest.(check bool) "magnitudes present" true
      (Array.length replay.Replay.s_output_sdc > 0)

let test_replay_section_detects_sdc () =
  let g = golden () in
  (* Find the dynamic instruction that stores mid[0] in section 0 and flip
     the sign of its value operand: the section output must show an SDC. *)
  let section = g.Golden.sections.(0) in
  let code = section.Golden.kernel.Kernel.code in
  let store_dyn = ref (-1) in
  Array.iteri
    (fun dyn pc ->
      match code.(pc) with
      | Instr.Store (_, _, _) when !store_dyn < 0 -> store_dyn := dyn
      | _ -> ())
    section.Golden.trace;
  Alcotest.(check bool) "found a store" true (!store_dyn >= 0);
  let injection = Replay.Fault { Machine.at_dyn = !store_dyn; operand = Machine.Osrc 1; bit = 63 } in
  let replay = Replay.run_section g section injection ~timeout_factor:5.0 in
  (match replay.Replay.s_anomaly with
  | Some _ -> Alcotest.fail "expected a clean run with SDC"
  | None ->
    let total = Array.fold_left (fun acc (_, m) -> acc +. m) 0.0 replay.Replay.s_output_sdc in
    Alcotest.(check bool) "sign flip visible in section output" true (total > 0.0))

let test_replay_to_end_propagates () =
  let g = golden () in
  let section = g.Golden.sections.(0) in
  let code = section.Golden.kernel.Kernel.code in
  let store_dyn = ref (-1) in
  Array.iteri
    (fun dyn pc ->
      match code.(pc) with
      | Instr.Store (_, _, _) when !store_dyn < 0 -> store_dyn := dyn
      | _ -> ())
    section.Golden.trace;
  let injection = Replay.Fault { Machine.at_dyn = !store_dyn; operand = Machine.Osrc 1; bit = 63 } in
  let replay = Replay.run_to_end g ~from_section:0 injection ~timeout_factor:5.0 in
  match replay.Replay.p_anomaly with
  | Some _ -> Alcotest.fail "expected clean propagation"
  | None ->
    let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 replay.Replay.p_final_sdc in
    (* mid[0] = 2.0 corrupted to -2.0 -> res[0] = 3.0 becomes -1.0: |Δ|=4. *)
    Alcotest.(check (float 1e-9)) "propagated magnitude" 4.0 total

let test_replay_early_convergence () =
  let g = golden () in
  (* A flip on a dead destination converges at the section boundary; the
     replay must charge at most the work of the injected section, not of
     the whole remaining program. *)
  let injection = Replay.Fault { Machine.at_dyn = 0; operand = Machine.Odst; bit = 0 } in
  let replay = Replay.run_to_end g ~from_section:0 injection ~timeout_factor:5.0 in
  match replay.Replay.p_anomaly with
  | Some _ -> () (* the flip trapped; fine, not what this test measures *)
  | None ->
    if List.for_all (fun (_, m) -> m = 0.0) replay.Replay.p_final_sdc then
      Alcotest.(check bool) "masked run stopped early" true
        (replay.Replay.p_executed <= g.Golden.sections.(0).Golden.dyn_count)

let test_replay_timeout_classified () =
  let src =
    {|output buffer res : float[1] = zeros;
kernel k(n: int, out res: float[]) {
  var i: int = 0;
  while (i < n) { i = i + 1; }
  res[0] = float_of_int(i);
}
schedule { call k(8, res); }|}
  in
  let g = Golden.run (compile src) in
  let section = g.Golden.sections.(0) in
  (* Flip a high bit of the loop-bound scalar register n (r0) at its first
     read: the loop runs ~2^40 iterations and must time out. *)
  let code = section.Golden.kernel.Kernel.code in
  let cmp_dyn = ref (-1) in
  Array.iteri
    (fun dyn pc ->
      match code.(pc) with
      | Instr.Icmp (_, _, _, _) when !cmp_dyn < 0 -> cmp_dyn := dyn
      | _ -> ())
    section.Golden.trace;
  let find_src_of_n =
    (* n is register 0 (first scalar); find its operand position. *)
    match code.(section.Golden.trace.(!cmp_dyn)) with
    | Instr.Icmp (_, _, a, _) when a = 0 -> 0
    | _ -> 1
  in
  let injection =
    Replay.Fault { Machine.at_dyn = !cmp_dyn; operand = Machine.Osrc find_src_of_n; bit = 40 }
  in
  let replay = Replay.run_section g section injection ~timeout_factor:5.0 in
  Alcotest.(check bool) "timeout anomaly" true
    (replay.Replay.s_anomaly = Some Replay.Timeout)

let () =
  Alcotest.run "vm"
    [
      ( "machine",
        [
          Alcotest.test_case "basic execution" `Quick test_machine_basic;
          Alcotest.test_case "trace" `Quick test_machine_trace;
          Alcotest.test_case "budget" `Quick test_machine_budget;
          Alcotest.test_case "traps" `Quick test_machine_traps;
          Alcotest.test_case "negative index" `Quick test_machine_negative_index_traps;
          Alcotest.test_case "scalar checking" `Quick test_machine_scalar_checking;
          Alcotest.test_case "dst injection" `Quick test_injection_dst_flip;
          Alcotest.test_case "src injection persists" `Quick test_injection_src_flip_persists;
          Alcotest.test_case "masked injection" `Quick test_injection_masked;
        ] );
      ( "golden",
        [
          Alcotest.test_case "sections" `Quick test_golden_sections;
          Alcotest.test_case "entry snapshots" `Quick test_golden_entry_snapshots;
          Alcotest.test_case "exit state" `Quick test_golden_exit_state;
          Alcotest.test_case "outputs/distance" `Quick test_golden_outputs_and_distance;
          Alcotest.test_case "input hash" `Quick test_golden_input_hash_tracks_inputs;
          Alcotest.test_case "rejects trapping golden" `Quick test_golden_rejects_trapping;
        ] );
      ( "replay",
        [
          Alcotest.test_case "section outcome" `Quick test_replay_section_masked;
          Alcotest.test_case "section SDC" `Quick test_replay_section_detects_sdc;
          Alcotest.test_case "end-to-end propagation" `Quick test_replay_to_end_propagates;
          Alcotest.test_case "early convergence" `Quick test_replay_early_convergence;
          Alcotest.test_case "timeout classification" `Quick test_replay_timeout_classified;
        ] );
    ]
