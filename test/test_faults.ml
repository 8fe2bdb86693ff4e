(* Fault-model subsystem tests.

   Every model must behave like the default one does operationally: the
   boxed oracle and the unboxed engine classify identically, any pool
   width reproduces the serial run bit for bit, the prover never
   disagrees with a replay (it abstains wholesale under non-register
   models), and a checkpointed analysis killed mid-campaign resumes to
   the uninterrupted result. The default model itself must be
   indistinguishable from the pre-model engine — same hash, same
   classes, same outcomes. *)

module Site = Ff_inject.Site
module Eqclass = Ff_inject.Eqclass
module Campaign = Ff_inject.Campaign
module Prover = Ff_inject.Prover
module Outcome = Ff_inject.Outcome
module Fault_model = Ff_inject.Fault_model
module Golden = Ff_vm.Golden
module Replay = Ff_vm.Replay
module Frontend = Ff_lang.Frontend
module Pool = Ff_support.Pool
module Hashing = Ff_support.Hashing
open Fastflip

let compile src =
  match Frontend.compile src with
  | Ok p -> p
  | Error e ->
    Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

let program_src =
  {|buffer a : float[3] = { 1.5, -0.25, 2.0 };
buffer k : int[2] = { 3, 1 };
buffer mid : float[3] = zeros;
output buffer res : float[3] = zeros;
kernel scale(in a: float[], in k: int[], out mid: float[]) {
  for i in 0..3 {
    var w: float = 1.0;
    if (a[i] > 0.0) { w = 2.0; }
    mid[i] = a[i] * w + float_of_int(k[i % 2]);
  }
}
kernel fold(in mid: float[], out res: float[]) {
  for i in 0..3 { res[i] = mid[i] - 0.5; }
}
schedule {
  call scale(a, k, mid);
  call fold(mid, res);
}|}

let golden = lazy (Golden.run (compile program_src))

(* A representative of every model family plus wider-burst variants, so
   both parameterizations of each parametric family are exercised. *)
let models =
  Fault_model.builtin
  @ [ Fault_model.Bitflip { burst = 8 }; Fault_model.Memflip { burst = 2 } ]

let config_of model =
  {
    Campaign.default_config with
    Campaign.bits = Site.Bit_list [ 0; 21; 42; 63 ];
    model;
    prove = Prover.off;
  }

(* --- string round-trip and hashing ----------------------------------------- *)

let test_string_roundtrip () =
  List.iter
    (fun m ->
      match Fault_model.of_string (Fault_model.to_string m) with
      | Ok m' ->
        Alcotest.(check bool)
          (Fault_model.to_string m ^ " round-trips")
          true (Fault_model.equal m m')
      | Error e -> Alcotest.failf "%s: %s" (Fault_model.to_string m) e)
    models;
  (match Fault_model.of_string "burst:4" with
  | Ok (Fault_model.Bitflip { burst = 4 }) -> ()
  | _ -> Alcotest.fail "burst:4 alias not accepted");
  List.iter
    (fun bad ->
      match Fault_model.of_string bad with
      | Ok _ -> Alcotest.failf "%S parsed but should not" bad
      | Error _ -> ())
    [ ""; "bitflip:0"; "bitflip:65"; "skip:2"; "opcode:1"; "memflip:x"; "nope" ]

let test_config_hashes_distinct () =
  let hashes =
    List.map (fun m -> Campaign.config_hash (config_of m)) models
  in
  let distinct = List.sort_uniq compare hashes in
  Alcotest.(check int) "every model keys a distinct store space"
    (List.length models) (List.length distinct)

let test_default_hash_is_pre_model_hash () =
  (* The default model folds exactly one int — the burst width — into the
     hash, which is what the pre-model config_hash did. An existing store
     therefore stays warm across the upgrade. *)
  List.iter
    (fun burst ->
      let h1 = Hashing.create () in
      Fault_model.hash_fold h1 (Fault_model.Bitflip { burst });
      let h2 = Hashing.create () in
      Hashing.add_int h2 burst;
      Alcotest.(check int64)
        (Printf.sprintf "Bitflip{burst=%d} hashes as the bare burst" burst)
        (Hashing.value h2) (Hashing.value h1))
    [ 1; 2; 4; 64 ];
  Alcotest.(check bool) "default config carries the default model" true
    (Fault_model.equal Campaign.default_config.Campaign.model
       Fault_model.default)

(* --- site enumeration ------------------------------------------------------- *)

let test_enumeration_is_model_driven () =
  let g = Lazy.force golden in
  let section = g.Golden.sections.(0) in
  let bits = Site.Bit_list [ 0; 63 ] in
  let count m = Site.count_section ~model:m section bits in
  let default_count = count Fault_model.default in
  Alcotest.(check int) "burst width does not change the site set"
    default_count
    (count (Fault_model.Bitflip { burst = 8 }));
  Alcotest.(check bool) "skip has one site per dynamic instruction" true
    (count Fault_model.Skip = section.Golden.dyn_count);
  Alcotest.(check bool) "opcode sites exist" true (count Fault_model.Opcode > 0);
  Alcotest.(check bool) "memflip sites cover bound buffers" true
    (count (Fault_model.Memflip { burst = 1 }) > 0);
  (* groups_of_section exposes the class -> representative mapping the
     campaign pilots with: every class pilot must be its group's
     representative, and members must be closed over the group. *)
  List.iter
    (fun m ->
      let groups = Eqclass.groups_of_section ~model:m section in
      let classes = Eqclass.for_section ~model:m section bits in
      Alcotest.(check int)
        (Fault_model.to_string m ^ ": classes = groups x bits")
        (List.length groups * List.length (Site.model_bits m bits))
        (List.length classes);
      List.iter
        (fun cls ->
          match
            List.find_opt
              (fun grp ->
                grp.Eqclass.g_pc = Eqclass.pc cls
                && grp.Eqclass.g_operand = Eqclass.operand cls)
              groups
          with
          | None -> Alcotest.fail "class without a group"
          | Some grp ->
            Alcotest.(check bool) "pilot is the group representative" true
              (grp.Eqclass.g_representative
              = ((Eqclass.pilot cls).Site.section, (Eqclass.pilot cls).Site.dyn));
            Alcotest.(check bool) "members coincide" true
              (grp.Eqclass.g_members = Eqclass.members cls))
        classes)
    models

(* --- engine and pool parity ------------------------------------------------- *)

(* A campaign cannot pick its engine: with the prover off, every class's
   outcome must be what the oracle's replay of its pilot gives, or the
   quarantine's crash where that replay raises, and a pooled campaign
   must equal the serial one. *)
let test_campaign_parity_all_models () =
  let g = Lazy.force golden in
  List.iter
    (fun m ->
      let name = Fault_model.to_string m in
      let config = config_of m in
      let burst = Fault_model.reg_burst m in
      let check_classes scope ~quarantined classes oracle =
        Array.iter
          (fun (cls, outcome) ->
            let pilot = Eqclass.pilot cls in
            let injection = Site.replay_injection ~model:m pilot in
            let expected =
              match oracle pilot injection with o -> o | exception _ -> quarantined
            in
            if Stdlib.compare outcome expected <> 0 then
              Alcotest.failf "%s: %s class at section %d, dyn %d differs from the oracle"
                name scope pilot.Site.section pilot.Site.dyn)
          classes
      in
      let serial = Campaign.run_section g ~section_index:0 config in
      check_classes "section" ~quarantined:(Outcome.S_detected Outcome.Crash)
        serial.Campaign.s_classes (fun _ injection ->
          Outcome.of_section_replay
            (Oracle.run_section ~burst g g.Golden.sections.(0) injection
               ~timeout_factor:config.Campaign.timeout_factor));
      List.iter
        (fun width ->
          Pool.with_pool ~domains:width @@ fun pool ->
          let pooled = Campaign.run_section ~pool g ~section_index:0 config in
          if Stdlib.compare serial pooled <> 0 then
            Alcotest.failf "%s: campaign diverged at pool width %d" name width)
        [ 1; 4 ];
      let baseline = Campaign.run_baseline g config in
      check_classes "baseline" ~quarantined:(Outcome.F_detected Outcome.Crash)
        baseline.Campaign.b_classes (fun pilot injection ->
          Outcome.of_program_replay
            (Oracle.run_to_end ~burst g ~from_section:pilot.Site.section injection
               ~timeout_factor:config.Campaign.timeout_factor));
      Pool.with_pool ~domains:4 @@ fun pool ->
      let pooled = Campaign.run_baseline ~pool g config in
      if Stdlib.compare baseline pooled <> 0 then
        Alcotest.failf "%s: baseline campaign diverged" name)
    models

(* Every site class of every model: the boxed oracle and the unboxed
   engine must classify each injection identically, both for a section
   replay and end-to-end. All classes, not a sample — a few type-confuse
   a section so both engines raise, and the engines must agree on that
   too, so each side is compared as a result or an exception. *)
let test_replay_parity () =
  let g = Lazy.force golden in
  let attempt f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  List.iter
    (fun model ->
      let name = Fault_model.to_string model in
      let burst = Fault_model.reg_burst model in
      Array.iter
        (fun section ->
          List.iter
            (fun cls ->
              let pilot = Eqclass.pilot cls in
              let injection = Site.replay_injection ~model pilot in
              let sb, su =
                let run f () =
                  f ?burst:(Some burst) g section injection ~timeout_factor:5.0
                in
                (attempt (run Oracle.run_section), attempt (run Replay.run_section))
              in
              if Stdlib.compare sb su <> 0 then
                Alcotest.failf "%s: section replay diverged at section %d, dyn %d" name
                  pilot.Site.section pilot.Site.dyn;
              let pb, pu =
                let run f () =
                  f ?burst:(Some burst) g ~from_section:pilot.Site.section injection
                    ~timeout_factor:5.0
                in
                (attempt (run Oracle.run_to_end), attempt (run Replay.run_to_end))
              in
              if Stdlib.compare pb pu <> 0 then
                Alcotest.failf "%s: program replay diverged at section %d, dyn %d" name
                  pilot.Site.section pilot.Site.dyn)
            (Eqclass.for_section ~model section (Site.Bit_list [ 0; 21; 42; 63 ])))
        g.Golden.sections)
    models

(* --- prover soundness over models ------------------------------------------- *)

let test_prover_never_disagrees_any_model () =
  let g = Lazy.force golden in
  List.iter
    (fun m ->
      let name = Fault_model.to_string m in
      Array.iteri
        (fun si section ->
          let classes =
            Array.of_list
              (Eqclass.for_section ~model:m section
                 (Site.Bit_list [ 0; 21; 42; 63 ]))
          in
          let proofs =
            Prover.prove_section g ~section_index:si ~timeout_factor:5.0
              ~model:m Prover.default_policy classes
          in
          let decided = ref 0 in
          Array.iteri
            (fun i -> function
              | None -> ()
              | Some claimed ->
                incr decided;
                let injection = Site.replay_injection ~model:m (Eqclass.pilot classes.(i)) in
                let actual =
                  Outcome.of_section_replay
                    (Replay.run_section ~burst:(Fault_model.reg_burst m) g
                       section injection ~timeout_factor:5.0)
                in
                if Stdlib.compare claimed actual <> 0 then
                  Alcotest.failf "%s: prover disagrees with replay on class %d"
                    name i)
            proofs;
          match m with
          | Fault_model.Bitflip _ -> ()
          | Fault_model.Skip | Fault_model.Opcode | Fault_model.Memflip _ ->
            Alcotest.(check int)
              (name ^ ": non-register model abstains wholesale")
              0 !decided)
        g.Golden.sections)
    models

(* --- checkpointed resume under a non-default model --------------------------- *)

let test_checkpoint_resume_under_model () =
  let program = compile program_src in
  List.iter
    (fun model ->
      let name = Fault_model.to_string model in
      let config =
        {
          Pipeline.default_config with
          Pipeline.campaign =
            { (config_of model) with Campaign.bits = Site.Bit_list [ 1; 63 ] };
          sensitivity_samples = 40;
        }
      in
      Pool.with_pool ~domains:2 @@ fun pool ->
      let reference = Pipeline.analyze ~pool config program in
      let path = Filename.temp_file "fffaults" ".bin" in
      Kill_resume.kill ~pool ~after:1 ~path config program;
      let resumed, loaded, _ = Kill_resume.resume ~pool ~path config program in
      Alcotest.(check bool) (name ^ ": crashed progress survives") true (loaded > 0);
      Array.iteri
        (fun i ra ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: section %d identical after resume" name i)
            true
            (Persist.roundtrip_equal ra resumed.Pipeline.sections.(i)))
        reference.Pipeline.sections;
      Alcotest.(check int) (name ^ ": work identical") reference.Pipeline.work
        resumed.Pipeline.work)
    [ Fault_model.Skip; Fault_model.Memflip { burst = 1 } ]

(* --- directed model semantics ----------------------------------------------- *)

let int_copy_src =
  {|buffer src : int[2] = { 64, -7 };
output buffer dst : int[2] = zeros;
kernel copy(in src: int[], out dst: int[]) {
  for i in 0..2 { dst[i] = src[i]; }
}
schedule { call copy(src, dst); }|}

let test_memflip_burst_width_matters () =
  (* The pilot of src's class flips bits 1..burst of src[1] = -7: -7 xor 2
     = -5 under burst 1 and -7 xor 6 = -1 under burst 2 in the copied
     output — the burst parameter has to reach the entry-state XOR. *)
  let g = Golden.run (compile int_copy_src) in
  let out_of burst =
    let model = Fault_model.Memflip { burst } in
    let site =
      let section = g.Golden.sections.(0) in
      match
        List.find_opt
          (fun cls -> Eqclass.operand cls = Site.Mem 0)
          (Eqclass.for_section ~model section (Site.Bit_list [ 1 ]))
      with
      | Some cls -> (section, Eqclass.pilot cls)
      | None -> Alcotest.fail "no memflip class on src"
    in
    let section, s = site in
    Alcotest.(check int) "pilot flips src[1]" 1 s.Site.dyn;
    let r =
      Replay.run_section g section
        (Site.replay_injection ~model s)
        ~timeout_factor:5.0
    in
    Alcotest.(check bool)
      (Printf.sprintf "burst %d replay is clean" burst)
      true
      (r.Replay.s_anomaly = None);
    r
  in
  let o1 = out_of 1 and o2 = out_of 2 in
  (* |delta| 2 under burst 1, 6 under burst 2: the output SDC magnitudes
     must differ. *)
  Alcotest.(check bool) "burst 1 and burst 2 corrupt differently" true
    (Stdlib.compare o1.Replay.s_output_sdc o2.Replay.s_output_sdc <> 0)

let test_skip_drops_exactly_one_instruction () =
  let g = Lazy.force golden in
  let section = g.Golden.sections.(0) in
  let skipped =
    Replay.run_section g section
      (Site.replay_injection ~model:Fault_model.Skip
         {
           Site.section = section.Golden.section_index;
           dyn = 0;
           pc = { Site.kernel = section.Golden.kernel_index; instr = 0 };
           operand = Site.Op;
           bit = 0;
         })
      ~timeout_factor:5.0
  in
  (* The skip must be a defined outcome — a clean finish, a trap or a
     budget exhaustion, never UB — and must actually change the run
     relative to an identity replay of the same section. *)
  Alcotest.(check bool) "replay executed" true (skipped.Replay.s_executed > 0);
  let golden_replay =
    Replay.run_section g section
      (Replay.Fault { Ff_vm.Machine.at_dyn = -1; operand = Ff_vm.Machine.Odst; bit = 0 })
      ~timeout_factor:5.0
  in
  Alcotest.(check bool) "skipping instruction 0 perturbs the section" true
    (Stdlib.compare skipped golden_replay <> 0)

let () =
  Alcotest.run "faults"
    [
      ( "model",
        [
          Alcotest.test_case "string round-trip" `Quick test_string_roundtrip;
          Alcotest.test_case "config hashes distinct" `Quick
            test_config_hashes_distinct;
          Alcotest.test_case "default hash matches pre-model hash" `Quick
            test_default_hash_is_pre_model_hash;
          Alcotest.test_case "enumeration is model-driven" `Quick
            test_enumeration_is_model_driven;
        ] );
      ( "parity",
        [
          Alcotest.test_case "campaigns identical across engines and pools"
            `Quick test_campaign_parity_all_models;
          Alcotest.test_case "boxed ≡ unboxed on random sites of random models" `Quick
            test_replay_parity;
        ] );
      ( "prover",
        [
          Alcotest.test_case "never disagrees under any model" `Quick
            test_prover_never_disagrees_any_model;
        ] );
      ( "resume",
        [
          Alcotest.test_case "checkpoint kill and resume under skip/memflip"
            `Quick test_checkpoint_resume_under_model;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "memflip burst width matters" `Quick
            test_memflip_burst_width_matters;
          Alcotest.test_case "skip is defined behaviour" `Quick
            test_skip_drops_exactly_one_instruction;
        ] );
    ]
