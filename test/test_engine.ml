(* Differential tests: the unboxed engine against the boxed oracle.

   The unboxed engine must be bit-identical to the oracle's interpreter
   ({!Oracle.exec}) — same statuses, executed counts, buffer contents
   (by Value.equal, i.e. raw bits), and traces — on arbitrary kernels,
   inputs, injections, and burst widths, including runs that trap or
   exhaust their budget. The replay and campaign layers must then
   classify every class as the oracle's replays do, at any pool width,
   and the golden run must equal the oracle's. *)

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

(* Register flips (sources and destination), skips, and encoding faults
   over every bit of {!Decode.encoding_bits}: each engine runs a
   corrupted instruction through its own step. *)
let gen_injection =
  QCheck2.Gen.(
    let reg =
      map2
        (fun op bit -> ((if op >= 3 then Machine.Odst else Machine.Osrc op), bit))
        (int_range 0 4) (int_range 0 63)
    in
    map2
      (fun at_dyn (operand, bit) -> { Machine.at_dyn; operand; bit })
      (int_range 0 40)
      (frequency
         [
           (5, reg);
           (1, pure (Machine.Oskip, 0));
           (2, map (fun bit -> (Machine.Oenc, bit)) (oneofl Decode.encoding_bits));
         ]))

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
        Oracle.exec kernel ~scalars ~buffers ~budget ~decoded ?injection ?burst ~trace ())
      ~scalars ~buffers ?injection ?burst ()
  in
  let unboxed =
    run_engine
      (fun ~scalars ~buffers ?injection ?burst ~trace () ->
        Oracle.exec_values decoded ~scalars ~buffers ~budget ?injection ?burst ~trace ())
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
  QCheck2.Test.make ~count:400 ~long_factor:300 ~name:"unboxed ≡ boxed on random kernels"
    QCheck2.Gen.(pair gen_kernel gen_inputs)
    (fun (kernel, (scalars, buffers)) ->
      differential kernel ~scalars ~buffers ~budget:256)

let prop_injected =
  QCheck2.Test.make ~count:600 ~long_factor:300
    ~name:"unboxed ≡ boxed under injection and bursts"
    QCheck2.Gen.(
      pair (pair gen_kernel gen_inputs) (pair gen_injection (int_range 1 70)))
    (fun ((kernel, (scalars, buffers)), (injection, burst)) ->
      differential kernel ~scalars ~buffers ~budget:256 ~injection ~burst)

(* --- directed traps -------------------------------------------------------- *)

let check_trap name kernel ~scalars ~buffers trap =
  let decoded = Decode.of_kernel kernel in
  let b1 = Array.map Array.copy buffers and b2 = Array.map Array.copy buffers in
  let r1 = Oracle.exec kernel ~scalars ~buffers:b1 ~budget:1000 () in
  let r2 = Oracle.exec_values decoded ~scalars ~buffers:b2 ~budget:1000 () in
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
    (Invalid_argument "Oracle.exec: scalar arity mismatch") (fun () ->
      ignore (Oracle.exec_values d ~scalars:[] ~buffers:[||] ~budget:10 ()));
  Alcotest.check_raises "wrong scalar type"
    (Invalid_argument "Oracle.exec: scalar type mismatch") (fun () ->
      ignore
        (Oracle.exec_values d ~scalars:[ Value.Float 1.0 ] ~buffers:[||] ~budget:10 ()))

(* [call shift(a, a)] binds one buffer to both slots, so each iteration
   reads what the previous one wrote: [a] ends 1, 2, 4, 8 (a mirror per
   slot, written back one after the other, would leave 1, 2, 4, 6). *)
let shift_src =
  {|output buffer a : float[4] = { 1.0, 2.0, 3.0, 4.0 };
kernel shift(in x: float[], inout y: float[]) {
  for i in 1..4 { y[i] = x[i - 1] * 2.0; }
}
schedule {
  call shift(a, a);
}|}

let floats l = Array.of_list (List.map (fun x -> Value.Float x) l)

let test_aliased_slots () =
  let kernel = List.hd (compile shift_src).Program.kernels in
  let decoded = Decode.of_kernel kernel in
  let check name exec =
    let a = floats [ 1.0; 2.0; 3.0; 4.0 ] in
    let run = exec ~buffers:[| a; a |] in
    Alcotest.(check bool)
      (name ^ " finishes") true
      (run.Machine.status = Machine.Finished);
    if not (buffers_bit_equal [| a |] [| floats [ 1.0; 2.0; 4.0; 8.0 ] |]) then
      Alcotest.failf "%s: a = %s" name
        (String.concat ", " (Array.to_list (Array.map Value.to_string a)))
  in
  check "oracle" (fun ~buffers ->
      Oracle.exec kernel ~scalars:[] ~buffers ~budget:1000 ());
  check "unboxed" (fun ~buffers ->
      Oracle.exec_values decoded ~scalars:[] ~buffers ~budget:1000 ())

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

(* [pipeline_src] with a[0] = [x]. *)
let pipeline_with x =
  let nl = String.index pipeline_src '\n' in
  Printf.sprintf "buffer a : float[3] = { %.1f, 2.0, -0.5 };%s" x
    (String.sub pipeline_src nl (String.length pipeline_src - nl))

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
                        Oracle.run_section ~burst g section injection ~timeout_factor:5.0
                      in
                      let unboxed =
                        Replay.run_section ~burst g section injection ~timeout_factor:5.0
                      in
                      if Stdlib.compare boxed unboxed <> 0 then
                        Alcotest.failf "section replay diverged at dyn %d bit %d burst %d"
                          at_dyn bit burst;
                      let pb =
                        Oracle.run_to_end ~burst g
                          ~from_section:section.Golden.section_index injection
                          ~timeout_factor:5.0
                      in
                      let pu =
                        Replay.run_to_end ~burst g
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

(* [Replay.exec_section], the workspace run that sensitivity sampling,
   detector synthesis and detector coverage start from: the oracle's
   entry, memory flip and execution are its reference. Register faults
   and memory flips (one makes an input infinite, one is out of range)
   must give the same status, executed count and bound buffers, bit for
   bit, after a replay to the end has dirtied this domain's workspace. *)
let test_exit_state_parity () =
  let g = Golden.run (compile pipeline_src) in
  let checked = ref 0 in
  let dirty = Replay.Mem_flip { Replay.mf_buffer = 0; mf_elem = 0; mf_bits = [ 62 ] } in
  Array.iter
    (fun (section : Golden.section_run) ->
      let si = section.Golden.section_index in
      let last = section.Golden.dyn_count - 1 in
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
              ignore (Replay.run_to_end g ~from_section:0 dirty ~timeout_factor:5.0);
              let ws, ru =
                Replay.exec_section ~burst ~injection g section ~edit:ignore
                  ~timeout_factor:5.0
              in
              let state = Oracle.Engine.enter g si ~whole:false in
              let fault =
                match injection with
                | Replay.Fault f -> Some f
                | Replay.Mem_flip m ->
                  Oracle.Engine.mem_flip state m;
                  None
              in
              let rb =
                Oracle.Engine.exec g state si ~injection:fault ~burst
                  ~budget:(Replay.budget_of ~timeout_factor:5.0 section.Golden.dyn_count)
              in
              if rb.Machine.status <> ru.Machine.status
                 || rb.Machine.executed <> ru.Machine.executed
              then
                Alcotest.failf "section %d: runs diverged (burst %d)" si burst;
              Array.iter
                (fun idx ->
                  let u = Ustate.values ws.Workspace.state idx in
                  if
                    Array.length u <> Array.length state.(idx)
                    || not (Array.for_all2 Value.equal state.(idx) u)
                  then
                    Alcotest.failf "section %d: buffer %d diverged (burst %d)" si idx burst)
                section.Golden.bound_idx;
              incr checked)
            [ 1; 2 ])
        (faults @ flips))
    g.Golden.sections;
  Alcotest.(check int) "runs compared" 100 !checked

(* Prover off so every class actually exercises the engines under test. *)
let campaign_config =
  {
    Campaign.bits = Site.Bit_list [ 0; 21; 42; 63 ];
    timeout_factor = 5.0;
    model = Fault_model.default;
    prove = Prover.off;
  }

(* A campaign cannot pick its engine: with the prover off, every class's
   outcome must be what [oracle] gives for the replay of its pilot. *)
let check_against_oracle name ~model classes oracle =
  Array.iter
    (fun (cls, outcome) ->
      let pilot = Eqclass.pilot cls in
      if Stdlib.compare outcome (oracle pilot (Site.replay_injection ~model pilot)) <> 0
      then
        Alcotest.failf "%s: class at section %d, dyn %d differs from the oracle" name
          pilot.Site.section pilot.Site.dyn)
    classes

let test_campaign_parity_across_pools () =
  let g = Golden.run (compile pipeline_src) in
  let model = campaign_config.Campaign.model in
  let burst = Fault_model.reg_burst model in
  let serial = Campaign.run_section g ~section_index:0 campaign_config in
  check_against_oracle "section campaign" ~model serial.Campaign.s_classes
    (fun _ injection ->
      Outcome.of_section_replay
        (Oracle.run_section ~burst g g.Golden.sections.(0) injection
           ~timeout_factor:5.0));
  List.iter
    (fun width ->
      Pool.with_pool ~domains:width @@ fun pool ->
      let pooled = Campaign.run_section ~pool g ~section_index:0 campaign_config in
      if Stdlib.compare serial pooled <> 0 then
        Alcotest.failf "campaign diverged at pool width %d" width)
    [ 1; 4 ];
  let baseline = Campaign.run_baseline g campaign_config in
  check_against_oracle "baseline" ~model baseline.Campaign.b_classes
    (fun pilot injection ->
      Outcome.of_program_replay
        (Oracle.run_to_end ~burst g ~from_section:pilot.Site.section injection
           ~timeout_factor:5.0));
  Pool.with_pool ~domains:4 @@ fun pool ->
  let pooled = Campaign.run_baseline ~pool g campaign_config in
  Alcotest.(check bool) "baseline campaigns agree" true
    (Stdlib.compare baseline pooled = 0)

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
  let first = Replay.run_section g section benign ~timeout_factor:5.0 in
  ignore (Replay.run_section g section nasty ~timeout_factor:5.0);
  let again = Replay.run_section g section benign ~timeout_factor:5.0 in
  Alcotest.(check bool) "same result after scratch reuse" true
    (Stdlib.compare first again = 0);
  (* Workspaces are cached per golden run, at most 4 per domain. Five
     golden runs whose a[0] differs, so that a replay on another run's
     workspace or states would show: the same replays, run round-robin
     across the five (each one evicting a workspace and rebuilding
     another), must equal each run's replays run on their own, and the
     oracle's replays, which use no workspace. *)
  let flip = Replay.Mem_flip { Replay.mf_buffer = 1; mf_elem = 2; mf_bits = [ 62 ] } in
  let jobs (section_replay, to_end) g =
    Array.to_list g.Golden.sections
    |> List.concat_map (fun section ->
           let from_section = section.Golden.section_index in
           List.concat_map
             (fun injection ->
               [
                 (fun () ->
                   Either.Left (section_replay g section injection ~timeout_factor:5.0));
                 (fun () ->
                   Either.Right (to_end g ~from_section injection ~timeout_factor:5.0));
               ])
             [ benign; nasty; flip ])
    |> Array.of_list
  in
  let engine = (Replay.run_section ~burst:1, Replay.run_to_end ~burst:1)
  and oracle = (Oracle.run_section ~burst:1, Oracle.run_to_end ~burst:1) in
  let runs =
    Array.init 5 (fun i -> Golden.run (compile (pipeline_with (float_of_int i))))
  in
  let run_all side =
    Array.map (fun g -> Array.map (fun job -> job ()) (jobs side g)) runs
  in
  let alone = run_all engine and reference = run_all oracle in
  let jobs = Array.map (jobs engine) runs in
  Array.iteri
    (fun k _ ->
      Array.iteri
        (fun r run_jobs ->
          let result = run_jobs.(k) () in
          if Stdlib.compare result alone.(r).(k) <> 0
             || Stdlib.compare result reference.(r).(k) <> 0
          then Alcotest.failf "golden run %d, replay %d: interleaved result differs" r k)
        jobs)
    jobs.(0)

(* --- golden runs ---------------------------------------------------------- *)

let check_golden name program =
  let g = Golden.run program and o = Oracle.golden_run program in
  let fail what =
    Alcotest.failf "%s: %s differs from the oracle's golden run" name what
  in
  if Array.length g.Golden.sections <> Array.length o.Oracle.sections then
    fail "sections";
  let boxed (u : Ustate.t) = Array.init (Array.length u.Ustate.words) (Ustate.values u) in
  Array.iter2
    (fun (s : Golden.section_run) (r : Oracle.golden_section) ->
      if s.Golden.trace <> r.Oracle.trace then fail "a trace";
      if s.Golden.dyn_count <> r.Oracle.dyn_count then fail "a dyn_count";
      if not (buffers_bit_equal (boxed s.Golden.entry) r.Oracle.entry_state) then
        fail "an entry state";
      if not (Int64.equal s.Golden.input_hash r.Oracle.input_hash) then
        fail "an input hash")
    g.Golden.sections o.Oracle.sections;
  if g.Golden.total_dyn <> o.Oracle.total_dyn then fail "total_dyn";
  if not (buffers_bit_equal (boxed g.Golden.final) o.Oracle.final_state) then
    fail "the final state"

let test_golden_matches_oracle () =
  List.iter
    (fun (b : Ff_benchmarks.Defs.t) ->
      List.iter
        (fun v ->
          check_golden b.Ff_benchmarks.Defs.name
            (compile (b.Ff_benchmarks.Defs.source v)))
        Ff_benchmarks.Defs.all_versions)
    Ff_benchmarks.Registry.all;
  (* From test/ under [dune runtest], from the root under [dune exec]. *)
  let path =
    List.find Sys.file_exists [ "../examples/pipeline.ff"; "examples/pipeline.ff" ]
  in
  check_golden "pipeline.ff"
    (compile (In_channel.with_open_bin path In_channel.input_all));
  check_golden "shift(a, a)" (compile shift_src)

(* Nothing a campaign (bit flips and memory flips, the prover on and
   off), a sensitivity estimate or detector synthesis runs may write into
   a golden boundary state or alias one: afterwards every boundary state
   of the golden run still equals a fresh golden run's. *)
let test_golden_states_isolated () =
  let check name program =
    let g = Golden.run program in
    let n = Array.length g.Golden.sections in
    List.iter
      (fun (model, prove) ->
        for section_index = 0 to n - 1 do
          ignore
            (Campaign.run_section g ~section_index
               { campaign_config with Campaign.model; prove })
        done)
      [
        (Fault_model.default, Prover.on);
        (Fault_model.default, Prover.off);
        (Fault_model.Memflip { burst = 1 }, Prover.off);
      ];
    let specs =
      Array.init n (fun section_index ->
          Ff_sensitivity.Sensitivity.estimate ~samples:25 ~rng:(Ff_support.Rng.create 7L) g
            ~section_index)
    in
    ignore (Ff_detect.Synthesize.run ~train:4 ~validate:4 ~seed:11L g ~specs);
    let fresh = Golden.run program in
    for k = 0 to n do
      if not (Ustate.equal (Golden.state g k) (Golden.state fresh k)) then
        Alcotest.failf "%s: golden boundary state %d changed" name k
    done
  in
  let path =
    List.find Sys.file_exists [ "../examples/pipeline.ff"; "examples/pipeline.ff" ]
  in
  check "pipeline.ff" (compile (In_channel.with_open_bin path In_channel.input_all));
  let lud = Option.get (Ff_benchmarks.Registry.find "LUD") in
  check "LUD/None" (compile (lud.Ff_benchmarks.Defs.source Ff_benchmarks.Defs.V_none))

(* The prover records the aliased section (its recording aliases the two
   slots, as the golden run does) and every proof is the oracle's
   replay outcome. *)
let test_aliased_proofs () =
  let g = Golden.run (compile shift_src) in
  let section = g.Golden.sections.(0) in
  let model = Fault_model.default in
  let classes =
    Array.of_list (Eqclass.for_section section (Site.Bit_list [ 0; 51; 63 ]))
  in
  let prove f = f g ~section_index:0 ~timeout_factor:5.0 ~model Prover.on classes in
  let proofs = prove Prover.prove_section and fproofs = prove Prover.prove_final in
  Alcotest.(check bool)
    "the section is recorded" true
    (Array.exists Option.is_some proofs);
  Array.iteri
    (fun i proof ->
      let injection = Site.replay_injection ~model (Eqclass.pilot classes.(i)) in
      (match proof with
      | Some claimed
        when Stdlib.compare claimed
               (Outcome.of_section_replay
                  (Oracle.run_section g section injection ~timeout_factor:5.0))
             <> 0 ->
        Alcotest.failf "section proof %d differs from the oracle" i
      | _ -> ());
      match fproofs.(i) with
      | Some claimed
        when Stdlib.compare claimed
               (Outcome.of_program_replay
                  (Oracle.run_to_end g ~from_section:0 injection ~timeout_factor:5.0))
             <> 0 ->
        Alcotest.failf "final proof %d differs from the oracle" i
      | _ -> ())
    proofs

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

(* Each check [Decode.corrupt] makes, one corrupted encoding at a time:
   a refused encoding is [None], which both engines trap on. *)
let test_decode_corrupt () =
  let k =
    {
      Kernel.name = "enc";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.InOut) ];
      code =
        [|
          Instr.Iconst (0, 0L);
          Instr.Load (1, 0, 0);
          Instr.Fcmp (Instr.Ceq, 1, 1, 1);
          Instr.Jmp 4;
          Instr.Halt;
        |];
      nregs = 2;
    }
  in
  let d = Decode.of_kernel k in
  let check name pc bit expected =
    let got = Decode.corrupt d ~pc ~bit in
    if not (Option.equal Instr.equal got expected) then
      Alcotest.failf "%s: pc %d bit %d decodes to %s" name pc bit
        (Option.fold ~none:"None" ~some:Instr.to_string got)
  in
  check "payload reread" 0 0 (Some (Instr.Fconst (0, 0.0)));
  check "dst in range" 1 32 (Some (Instr.Load (0, 0, 0)));
  check "dst out of range" 1 33 None;
  check "slot out of range" 1 16 None;
  check "sub-operation" 2 0 (Some (Instr.Fcmp (Instr.Cne, 1, 1, 1)));
  check "opcode outside the space" 2 3 None;
  check "label in range" 3 10 (Some (Instr.Jmp 0));
  check "label out of range" 3 11 None;
  check "terminator last" 4 2 (Some (Instr.Jmp 0));
  check "falls off the end" 4 3 None;
  check "bit above the field's flippable bits" 0 14 None;
  check "field beyond dst" 0 40 None;
  check "negative bit" 0 (-1) None

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
          Alcotest.test_case "aliased slots share one buffer" `Quick test_aliased_slots;
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
          Alcotest.test_case "exit-state parity" `Quick test_exit_state_parity;
        ] );
      ( "decode",
        [
          Alcotest.test_case "validation" `Quick test_decode_validation;
          Alcotest.test_case "operand tables" `Quick test_decode_operand_tables;
          Alcotest.test_case "corrupt refuses illegal encodings" `Quick
            test_decode_corrupt;
        ] );
      ( "golden",
        [
          Alcotest.test_case "Golden.run ≡ the oracle's golden run" `Quick
            test_golden_matches_oracle;
          Alcotest.test_case "aliased section proofs ≡ oracle replays" `Quick
            test_aliased_proofs;
          Alcotest.test_case "golden states stay isolated" `Quick
            test_golden_states_isolated;
        ] );
    ]
