(* Injection-analysis tests: error-site enumeration, equivalence classes,
   outcome classification, and campaign accounting. *)

open Ff_inject
module Golden = Ff_vm.Golden
module Replay = Ff_vm.Replay
module Machine = Ff_vm.Machine
module Instr = Ff_ir.Instr
module Frontend = Ff_lang.Frontend

let compile src =
  match Frontend.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

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

(* A schedule that repeats the same kernel: the substrate for the
   cross-section pruning tests. *)
let repeated_src =
  {|output buffer acc : float[1] = { 1.0 };
kernel double(inout acc: float[]) { acc[0] = acc[0] * 2.0; }
schedule {
  for i in 0..4 {
    call double(acc);
  }
}|}

let golden src = Golden.run (compile src)

(* --- sites --------------------------------------------------------------- *)

let test_bits_of_policy () =
  Alcotest.(check int) "all bits" 64 (List.length (Site.bits_of_policy Site.All_bits));
  Alcotest.(check (list int)) "explicit" [ 3; 5 ]
    (Site.bits_of_policy (Site.Bit_list [ 3; 5 ]))

let test_operand_enumeration () =
  Alcotest.(check int) "ibin operands" 3 (Site.operand_count (Instr.Ibin (Instr.Iadd, 0, 1, 2)));
  Alcotest.(check int) "store operands" 2 (Site.operand_count (Instr.Store (0, 1, 2)));
  Alcotest.(check int) "jmp operands" 0 (Site.operand_count (Instr.Jmp 0));
  Alcotest.(check int) "halt operands" 0 (Site.operand_count Instr.Halt)

let test_count_matches_iter () =
  let g = golden pipeline_src in
  Array.iter
    (fun section ->
      let counted = Site.count_section section Site.default_bits in
      let iterated = ref 0 in
      Site.iter_section section Site.default_bits (fun _ -> incr iterated);
      Alcotest.(check int) "count = iteration" counted !iterated)
    g.Golden.sections

let test_sites_scale_with_bits () =
  let g = golden pipeline_src in
  let section = g.Golden.sections.(0) in
  let c1 = Site.count_section section (Site.Bit_list [ 0 ]) in
  let c4 = Site.count_section section (Site.Bit_list [ 0; 1; 2; 3 ]) in
  Alcotest.(check int) "4 bits = 4x sites" (4 * c1) c4

let test_site_fields_valid () =
  let g = golden pipeline_src in
  let section = g.Golden.sections.(1) in
  Site.iter_section section Site.default_bits (fun site ->
      if site.Site.section <> 1 then Alcotest.fail "wrong section index";
      if site.Site.dyn < 0 || site.Site.dyn >= section.Golden.dyn_count then
        Alcotest.fail "dyn out of range";
      if site.Site.bit < 0 || site.Site.bit > 63 then Alcotest.fail "bit out of range";
      if site.Site.pc.Site.kernel <> section.Golden.kernel_index then
        Alcotest.fail "wrong kernel index")

(* --- equivalence classes ---------------------------------------------------- *)

let test_classes_partition_sites () =
  let g = golden pipeline_src in
  Array.iter
    (fun section ->
      let classes = Eqclass.for_section section Site.default_bits in
      Alcotest.(check int) "class members cover all sites"
        (Site.count_section section Site.default_bits)
        (Eqclass.total_sites classes))
    g.Golden.sections

let test_program_classes_cover_everything () =
  let g = golden pipeline_src in
  let classes = Eqclass.for_program g Site.default_bits in
  let total =
    Array.fold_left
      (fun acc s -> acc + Site.count_section s Site.default_bits)
      0 g.Golden.sections
  in
  Alcotest.(check int) "global classes cover all sites" total
    (Eqclass.total_sites classes)

let test_cross_section_merging () =
  (* Four calls of the same kernel: FastFlip forms per-section classes 4
     times, the baseline merges them -- 4x fewer pilots. *)
  let g = golden repeated_src in
  let per_section =
    Array.to_list g.Golden.sections
    |> List.concat_map (fun s -> Eqclass.for_section s Site.default_bits)
  in
  let merged = Eqclass.for_program g Site.default_bits in
  Alcotest.(check int) "baseline merges repeated kernels"
    (List.length per_section / 4)
    (List.length merged);
  List.iter
    (fun cls ->
      Alcotest.(check int) "4 members per merged class" 4 (Array.length (Eqclass.members cls)))
    merged

let test_pilot_is_median_member () =
  let g = golden repeated_src in
  let merged = Eqclass.for_program g Site.default_bits in
  List.iter
    (fun cls ->
      let expected_section, expected_dyn =
        (Eqclass.members cls).(Array.length (Eqclass.members cls) / 2)
      in
      Alcotest.(check int) "pilot section" expected_section (Eqclass.pilot cls).Site.section;
      Alcotest.(check int) "pilot dyn" expected_dyn (Eqclass.pilot cls).Site.dyn)
    merged

let test_members_sorted () =
  let g = golden repeated_src in
  let merged = Eqclass.for_program g Site.default_bits in
  List.iter
    (fun cls ->
      let sorted = Array.copy (Eqclass.members cls) in
      Array.sort compare sorted;
      Alcotest.(check bool) "members ascending" true (sorted = Eqclass.members cls))
    merged

let test_members_in_section () =
  let g = golden repeated_src in
  let merged = Eqclass.for_program g Site.default_bits in
  let cls = List.hd merged in
  Alcotest.(check int) "one member in section 0" 1 (Eqclass.members_in_section cls 0);
  Alcotest.(check int) "none in section 9" 0 (Eqclass.members_in_section cls 9)

(* --- outcomes ----------------------------------------------------------------- *)

let test_outcome_classification () =
  Alcotest.(check bool) "masked" true
    (Outcome.section_is_masked (Outcome.S_sdc [| (0, 0.0); (1, 0.0) |]));
  Alcotest.(check bool) "not masked" false
    (Outcome.section_is_masked (Outcome.S_sdc [| (0, 0.5) |]));
  Alcotest.(check bool) "detected not masked" false
    (Outcome.section_is_masked (Outcome.S_detected Outcome.Crash));
  Alcotest.(check bool) "bad above eps" true
    (Outcome.final_is_bad ~epsilon:0.01 (Outcome.F_sdc [ (0, 0.02) ]));
  Alcotest.(check bool) "good below eps" false
    (Outcome.final_is_bad ~epsilon:0.01 (Outcome.F_sdc [ (0, 0.005) ]));
  Alcotest.(check bool) "eps boundary is good" false
    (Outcome.final_is_bad ~epsilon:0.01 (Outcome.F_sdc [ (0, 0.01) ]));
  Alcotest.(check bool) "detected never bad" false
    (Outcome.final_is_bad ~epsilon:0.0 (Outcome.F_detected Outcome.Timed_out))

let test_outcome_of_replays () =
  let section_replay =
    {
      Replay.s_anomaly = Some (Replay.Trap Machine.Div_by_zero);
      s_output_sdc = [||];
      s_side_effect = false;
      s_nonfinite = false;
      s_executed = 10;
    }
  in
  (match Outcome.of_section_replay section_replay with
  | Outcome.S_detected Outcome.Crash -> ()
  | _ -> Alcotest.fail "trap classifies as crash");
  let nonfinite =
    {
      Replay.s_anomaly = None;
      s_output_sdc = [| (0, infinity) |];
      s_side_effect = false;
      s_nonfinite = true;
      s_executed = 10;
    }
  in
  (match Outcome.of_section_replay nonfinite with
  | Outcome.S_detected Outcome.Misformatted -> ()
  | _ -> Alcotest.fail "non-finite output classifies as misformatted");
  let timeout =
    {
      Replay.p_anomaly = Some Replay.Timeout;
      p_final_sdc = [];
      p_nonfinite = false;
      p_executed = 10;
    }
  in
  match Outcome.of_program_replay timeout with
  | Outcome.F_detected Outcome.Timed_out -> ()
  | _ -> Alcotest.fail "timeout classification"

(* --- campaigns ------------------------------------------------------------------ *)

(* Prover off: these tests assert the replay-side accounting (one
   injection per class); test_prover.ml covers the prover pre-pass. *)
let config =
  {
    Campaign.bits = Site.Bit_list [ 0; 31; 63 ];
    timeout_factor = 5.0;
    model = Fault_model.default;
    prove = Prover.off;
  }

let test_section_campaign_accounting () =
  let g = golden pipeline_src in
  let result = Campaign.run_section g ~section_index:0 config in
  Alcotest.(check int) "one outcome per class" result.Campaign.s_injections
    (Array.length result.Campaign.s_classes);
  Alcotest.(check int) "sites covered"
    (Site.count_section g.Golden.sections.(0) config.Campaign.bits)
    result.Campaign.s_sites;
  Alcotest.(check bool) "work charged" true (result.Campaign.s_work > 0)

let test_baseline_campaign_accounting () =
  let g = golden pipeline_src in
  let result = Campaign.run_baseline g config in
  Alcotest.(check int) "one outcome per class" result.Campaign.b_injections
    (Array.length result.Campaign.b_classes);
  let total =
    Array.fold_left (fun acc s -> acc + Site.count_section s config.Campaign.bits) 0
      g.Golden.sections
  in
  Alcotest.(check int) "sites covered" total result.Campaign.b_sites

let test_campaign_deterministic () =
  let g = golden pipeline_src in
  let r1 = Campaign.run_section g ~section_index:0 config in
  let r2 = Campaign.run_section g ~section_index:0 config in
  Alcotest.(check int) "same work" r1.Campaign.s_work r2.Campaign.s_work;
  Array.iter2
    (fun (_, o1) (_, o2) -> Alcotest.(check bool) "same outcomes" true (o1 = o2))
    r1.Campaign.s_classes r2.Campaign.s_classes

let test_campaign_finds_sdcs_and_masks () =
  let g = golden pipeline_src in
  let result = Campaign.run_section g ~section_index:0 config in
  let masked = ref 0 and sdc = ref 0 and detected = ref 0 in
  Array.iter
    (fun (_, outcome) ->
      match (outcome : Outcome.section_outcome) with
      | Outcome.S_detected _ -> incr detected
      | Outcome.S_sdc _ when Outcome.section_is_masked outcome -> incr masked
      | Outcome.S_sdc _ -> incr sdc)
    result.Campaign.s_classes;
  Alcotest.(check bool) "some masked" true (!masked > 0);
  Alcotest.(check bool) "some SDCs" true (!sdc > 0);
  Alcotest.(check bool) "some detected" true (!detected > 0)

let test_final_outcomes_for_section () =
  let g = golden pipeline_src in
  let classes, work = Campaign.final_outcomes_for_section g ~section_index:0 config in
  Alcotest.(check int) "same classes as the section campaign"
    (List.length (Eqclass.for_section g.Golden.sections.(0) config.Campaign.bits))
    (Array.length classes);
  Alcotest.(check bool) "work charged" true (work > 0)

let test_config_hash_sensitivity () =
  let h1 = Campaign.config_hash config in
  let h2 = Campaign.config_hash { config with Campaign.timeout_factor = 6.0 } in
  let h3 = Campaign.config_hash { config with Campaign.bits = Site.Bit_list [ 0; 31 ] } in
  Alcotest.(check bool) "timeout factor matters" false (Int64.equal h1 h2);
  Alcotest.(check bool) "bits matter" false (Int64.equal h1 h3);
  Alcotest.(check int64) "stable" h1 (Campaign.config_hash config)

let () =
  Alcotest.run "inject"
    [
      ( "sites",
        [
          Alcotest.test_case "bit policies" `Quick test_bits_of_policy;
          Alcotest.test_case "operand enumeration" `Quick test_operand_enumeration;
          Alcotest.test_case "count = iter" `Quick test_count_matches_iter;
          Alcotest.test_case "scale with bits" `Quick test_sites_scale_with_bits;
          Alcotest.test_case "site fields" `Quick test_site_fields_valid;
        ] );
      ( "eqclass",
        [
          Alcotest.test_case "partition sites" `Quick test_classes_partition_sites;
          Alcotest.test_case "global coverage" `Quick test_program_classes_cover_everything;
          Alcotest.test_case "cross-section merging" `Quick test_cross_section_merging;
          Alcotest.test_case "pilot is median" `Quick test_pilot_is_median_member;
          Alcotest.test_case "members sorted" `Quick test_members_sorted;
          Alcotest.test_case "members per section" `Quick test_members_in_section;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "classification" `Quick test_outcome_classification;
          Alcotest.test_case "replay conversion" `Quick test_outcome_of_replays;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "section accounting" `Quick test_section_campaign_accounting;
          Alcotest.test_case "baseline accounting" `Quick test_baseline_campaign_accounting;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "outcome mix" `Quick test_campaign_finds_sdcs_and_masks;
          Alcotest.test_case "simultaneous finals" `Quick test_final_outcomes_for_section;
          Alcotest.test_case "config hash" `Quick test_config_hash_sensitivity;
        ] );
    ]
