(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Tables 1-4, the Section 6.4 epsilon = 0.01 variant as
   "table5", and Figure 1), plus Bechamel micro-benchmarks of the analysis
   building blocks.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table3       # one artifact
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks only
     dune exec bench/main.exe -- quick        # tables on a 4-bit subset (fast)
     dune exec bench/main.exe -- parallel     # serial-vs-parallel wall-clock
     dune exec bench/main.exe -- store        # sharded-store save latency
     dune exec bench/main.exe -- quick --metrics mx.json   # telemetry export
     dune exec bench/main.exe -- quick table3 --store s.bin  # persistent store

   Campaigns and sensitivity sampling run on FF_DOMAINS domains (default:
   the recommended domain count); every artifact is bit-identical to the
   serial run. Timings use the monotonic clock. A run that includes
   `parallel` overwrites BENCH_parallel.json with its serial-vs-parallel
   phases and the time of every artifact it ran.

   Exit status: 1 when a row of [floors] fails for an artifact that ran
   (after every BENCH_*.json is written), 2 on an unknown argument. *)

open Ff_benchmarks
module Pipeline = Fastflip.Pipeline
module Campaign = Ff_inject.Campaign
module Site = Ff_inject.Site
module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry

let quick_config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 1; 21; 42; 62 ] };
    sensitivity_samples = 60;
  }

(* Seconds on the monotonic clock (immune to wall-clock adjustments). *)
let now () = Bechamel.Toolkit.Monotonic_clock.get () *. 1e-9

let timed label f =
  let t0 = now () in
  let result = f () in
  Printf.printf "[%s: %.1fs]\n%!" label (now () -. t0);
  result

let wall f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

(* The shared campaign pool: FF_DOMAINS wide, created on first use. *)
let pool = lazy (Pool.create ~domains:(Pool.default_domains ()))

(* --store FILE: one persistent incremental store shared by every
   harness analysis in this invocation (loaded before the first
   artifact, saved after the last), so repeat bench runs reuse stored
   campaigns exactly like the CLI does. *)
let shared_store : Fastflip.Store.t option ref = ref None

let cached_runs : (string, Ff_harness.Experiments.benchmark_run) Hashtbl.t =
  Hashtbl.create 8

let run_for config bench =
  match Hashtbl.find_opt cached_runs bench.Defs.name with
  | Some run -> run
  | None ->
    let run =
      timed
        (Printf.sprintf "analyzed %s (3 versions, FastFlip + baseline)" bench.Defs.name)
        (fun () ->
          Ff_harness.Experiments.run_benchmark ~config ~pool:(Lazy.force pool)
            ?store:!shared_store bench)
    in
    Hashtbl.replace cached_runs bench.Defs.name run;
    run

let all_runs config = List.map (run_for config) Registry.all

let campipe_run config =
  match Registry.find "Campipe" with
  | Some bench -> run_for config bench
  | None -> failwith "Campipe benchmark missing"

let lud_run config =
  match Registry.find "LUD" with
  | Some bench -> run_for config bench
  | None -> failwith "LUD benchmark missing"

let print_table1 config = print_endline (Ff_harness.Tables.table1 (all_runs config))

let print_table2 config =
  print_endline
    (Ff_harness.Tables.table2
       (fun run result -> Ff_harness.Experiments.utility_rows run result)
       (all_runs config))

let print_table3 config = print_endline (Ff_harness.Tables.table3 (all_runs config))

let print_table4 config = print_endline (Ff_harness.Tables.table4 (campipe_run config))

let print_table5 config =
  (* Section 6.4: SDCs up to 0.01 are acceptable for every benchmark but
     SHA2 (whose output must be exact). Relabeling reuses the stored
     outcomes; no new injections run. *)
  print_endline
    (Ff_harness.Tables.table2
       ~epsilon_label:"eps = 0.01 (small SDCs acceptable; SHA2 keeps eps = 0)"
       (fun run result ->
         let epsilon = run.Ff_harness.Experiments.bench.Defs.epsilon_good in
         Ff_harness.Experiments.utility_rows_at ~epsilon run result)
       (all_runs config))

let print_figure1 config = print_endline (Ff_harness.Tables.figure1 (lud_run config))

let print_ablations config =
  print_endline (Ff_harness.Ablations.cost_models (all_runs config));
  (match Registry.find "LUD" with
  | Some bench -> print_endline (Ff_harness.Ablations.burst ~config bench)
  | None -> ());
  print_endline (Ff_harness.Ablations.pruning (all_runs config))

let print_evolution config =
  match Registry.find "LUD" with
  | Some bench ->
    let steps =
      timed "evolution chain (8 commits, FastFlip + per-commit ground truth)"
        (fun () -> Ff_harness.Evolution.run ~config bench)
    in
    print_endline (Ff_harness.Evolution.render steps)
  | None -> ()

(* --- serial vs parallel wall-clock -------------------------------------- *)

type phase_timing = {
  phase : string;
  serial_s : float;
  parallel_s : float;
  identical : bool;
}

let phase_timings : phase_timing list ref = ref []
let table_timings : (string * float) list ref = ref []

let speedup_of t = if t.parallel_s > 0.0 then t.serial_s /. t.parallel_s else 0.0

(* NaNs can appear inside outcome SDC magnitudes, so structural equality
   goes through [compare] (which equates them) rather than [=]. *)
let same a b = Stdlib.compare a b = 0

let print_parallel config =
  let p = Lazy.force pool in
  let bench = Option.get (Registry.find "LUD") in
  let program = Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_none) in
  let golden = Ff_vm.Golden.run program in
  let campaign_config = config.Pipeline.campaign in
  let phase name serial parallel check =
    let s, serial_s = wall serial in
    let q, parallel_s = wall parallel in
    let t = { phase = name; serial_s; parallel_s; identical = check s q } in
    phase_timings := !phase_timings @ [ t ];
    t
  in
  let sections () =
    Array.init (Array.length golden.Ff_vm.Golden.sections) Fun.id
  in
  let campaign =
    phase "campaign/sections"
      (fun () ->
        Array.map (fun i -> Campaign.run_section golden ~section_index:i campaign_config)
          (sections ()))
      (fun () ->
        Array.map
          (fun i -> Campaign.run_section ~pool:p golden ~section_index:i campaign_config)
          (sections ()))
      same
  in
  let baseline =
    phase "campaign/baseline"
      (fun () -> Campaign.run_baseline golden campaign_config)
      (fun () -> Campaign.run_baseline ~pool:p golden campaign_config)
      same
  in
  let analysis =
    phase "pipeline/analyze"
      (fun () -> Pipeline.analyze config program)
      (fun () -> Pipeline.analyze ~pool:p config program)
      (fun a b ->
        same a.Pipeline.valuation b.Pipeline.valuation
        && same a.Pipeline.solution b.Pipeline.solution
        && a.Pipeline.work = b.Pipeline.work)
  in
  let t =
    Ff_support.Table.create
      ~title:
        (Printf.sprintf "LUD (V_none): serial vs %d-domain wall-clock" (Pool.domains p))
      [
        ("Phase", Ff_support.Table.Left);
        ("Serial s", Ff_support.Table.Right);
        ("Parallel s", Ff_support.Table.Right);
        ("Speedup", Ff_support.Table.Right);
        ("Identical", Ff_support.Table.Right);
      ]
  in
  List.iter
    (fun pt ->
      Ff_support.Table.add_row t
        [
          pt.phase;
          Printf.sprintf "%.3f" pt.serial_s;
          Printf.sprintf "%.3f" pt.parallel_s;
          Printf.sprintf "%.2fx" (speedup_of pt);
          string_of_bool pt.identical;
        ])
    [ campaign; baseline; analysis ];
  Ff_support.Table.print t

let emit_parallel_json ~quick () =
  let jobs = if Lazy.is_val pool then Pool.domains (Lazy.force pool) else Pool.default_domains () in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"jobs\": %d,\n  \"quick\": %b,\n  \"phases\": [" jobs quick;
  List.iteri
    (fun i t ->
      add "%s\n    { \"phase\": %S, \"serial_s\": %.6f, \"parallel_s\": %.6f, \"speedup\": %.3f, \"identical\": %b }"
        (if i = 0 then "" else ",")
        t.phase t.serial_s t.parallel_s (speedup_of t) t.identical)
    !phase_timings;
  add "\n  ],\n  \"tables\": {";
  List.iteri
    (fun i (name, s) ->
      add "%s\n    %S: %.6f" (if i = 0 then "" else ",") name s)
    !table_timings;
  add "\n  }\n}\n";
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_parallel.json (%d domains)\n%!" jobs

(* --- boxed vs unboxed execution engine ---------------------------------- *)

type engine_timing = {
  e_seconds : float;
  e_instr_per_sec : float;
  e_replays_per_sec : float;
}

type vm_result = {
  vm_boxed : engine_timing;
  vm_unboxed : engine_timing;
  vm_identical : bool;
}

let vm_result : vm_result option ref = ref None

let vm_speedup r =
  if r.vm_unboxed.e_seconds > 0.0 then r.vm_boxed.e_seconds /. r.vm_unboxed.e_seconds
  else 0.0

let print_vm config =
  (* Full injection campaigns over every LUD section, serially, once per
     engine: the replay loop is exactly the campaign hot path, so
     instructions/s and replays/s compare the engines end to end (decode,
     workspace reset, execution, classification). Identity of the two
     result arrays is a gated row of [floors]. *)
  let bench = Option.get (Registry.find "LUD") in
  let program = Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_none) in
  let golden = Ff_vm.Golden.run program in
  let campaign_config = config.Pipeline.campaign in
  (* Class enumeration is engine-independent input, identical for both
     sides — hoist it out of the timed region so the comparison isolates
     the replay engines. *)
  let classes =
    Array.init (Array.length golden.Ff_vm.Golden.sections) (fun i ->
        Ff_inject.Eqclass.for_section golden.Ff_vm.Golden.sections.(i)
          campaign_config.Campaign.bits)
  in
  let campaign engine =
    Array.init (Array.length golden.Ff_vm.Golden.sections) (fun i ->
        Campaign.run_section ~engine ~classes:classes.(i) golden ~section_index:i
          campaign_config)
  in
  (* Warm both engines once so one-time costs (plan build, decoded form,
     workspace allocation) don't skew the timed comparison. *)
  ignore (campaign Ff_vm.Replay.Boxed);
  ignore (campaign Ff_vm.Replay.Unboxed);
  (* Interleaved best-of-N: one timed run per engine per round, keeping
     each engine's minimum. A single timed run per engine is at the mercy
     of scheduler noise (observed >30% run-to-run swing for identical
     code); interleaving exposes both engines to the same interference
     and the minimum is the least-perturbed execution of each. *)
  let reps = 9 in
  let best_boxed = ref infinity and best_unboxed = ref infinity in
  let boxed_results = ref [||] and unboxed_results = ref [||] in
  for _ = 1 to reps do
    let rb, sb = wall (fun () -> campaign Ff_vm.Replay.Boxed) in
    if sb < !best_boxed then best_boxed := sb;
    boxed_results := rb;
    let ru, su = wall (fun () -> campaign Ff_vm.Replay.Unboxed) in
    if su < !best_unboxed then best_unboxed := su;
    unboxed_results := ru
  done;
  let timing_of results seconds =
    let work = Array.fold_left (fun acc r -> acc + r.Campaign.s_work) 0 results in
    let replays =
      Array.fold_left (fun acc r -> acc + r.Campaign.s_injections) 0 results
    in
    {
      e_seconds = seconds;
      e_instr_per_sec = (if seconds > 0.0 then float_of_int work /. seconds else 0.0);
      e_replays_per_sec =
        (if seconds > 0.0 then float_of_int replays /. seconds else 0.0);
    }
  in
  let boxed_results = !boxed_results and unboxed_results = !unboxed_results in
  let boxed = timing_of boxed_results !best_boxed in
  let unboxed = timing_of unboxed_results !best_unboxed in
  let identical = same boxed_results unboxed_results in
  let r = { vm_boxed = boxed; vm_unboxed = unboxed; vm_identical = identical } in
  vm_result := Some r;
  let t =
    Ff_support.Table.create ~title:"LUD (V_none): boxed vs unboxed engine, full campaign"
      [
        ("Engine", Ff_support.Table.Left);
        ("Seconds", Ff_support.Table.Right);
        ("Minstr/s", Ff_support.Table.Right);
        ("Replays/s", Ff_support.Table.Right);
      ]
  in
  List.iter
    (fun (name, e) ->
      Ff_support.Table.add_row t
        [
          name;
          Printf.sprintf "%.3f" e.e_seconds;
          Printf.sprintf "%.2f" (e.e_instr_per_sec /. 1e6);
          Printf.sprintf "%.0f" e.e_replays_per_sec;
        ])
    [ ("boxed", boxed); ("unboxed", unboxed) ];
  Ff_support.Table.print t;
  Printf.printf "campaign speedup (unboxed/boxed): %.2fx, identical: %b\n%!"
    (vm_speedup r) identical

let emit_vm_json () =
  match !vm_result with
  | None -> ()
  | Some r ->
    let speedup = vm_speedup r in
    let engine name e =
      Printf.sprintf
        "    %S: { \"seconds\": %.6f, \"instr_per_sec\": %.1f, \"replays_per_sec\": %.1f }"
        name e.e_seconds e.e_instr_per_sec e.e_replays_per_sec
    in
    let oc = open_out "BENCH_vm.json" in
    Printf.fprintf oc
      "{\n  \"engines\": {\n%s,\n%s\n  },\n  \"campaign_speedup\": %.3f,\n  \
       \"identical\": %b\n}\n"
      (engine "boxed" r.vm_boxed)
      (engine "unboxed" r.vm_unboxed)
      speedup r.vm_identical;
    close_out oc;
    Printf.printf "wrote BENCH_vm.json (speedup %.2fx)\n%!" speedup

(* --- static outcome prover: prune ratio and end-to-end speedup ---------- *)

type prune_row = {
  pr_name : string;
  pr_classes : int;
  pr_masked : int;
  pr_crash : int;
  pr_benign : int;
  pr_on_s : float;
  pr_off_s : float;
  pr_identical : bool;
}

let prune_rows : prune_row list ref = ref []
let pr_proved r = r.pr_masked + r.pr_crash + r.pr_benign

let pr_ratio r =
  if r.pr_classes > 0 then float_of_int (pr_proved r) /. float_of_int r.pr_classes
  else 0.0

let pr_speedup r = if r.pr_on_s > 0.0 then r.pr_off_s /. r.pr_on_s else 0.0

(* Summed prover-off time over summed prover-on time, across benchmarks. *)
let pr_aggregate rows =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let on = sum (fun r -> r.pr_on_s) in
  if on > 0.0 then sum (fun r -> r.pr_off_s) /. on else 0.0

let print_prune config =
  (* Per benchmark (V_none): run the full per-section campaign with the
     prover on and off, serially, and compare. The prover may only
     change the work accounting — the outcome arrays must be
     bit-identical, and a divergence fails the gate: it would mean the prover
     claimed an outcome the replay disagrees with. Timing is interleaved
     best-of-N like the vm artifact, so both variants see the same
     scheduler interference. *)
  let campaign_config = config.Pipeline.campaign in
  let on_config = { campaign_config with Campaign.prove = Ff_inject.Prover.on } in
  let off_config = { campaign_config with Campaign.prove = Ff_inject.Prover.off } in
  let rows =
    List.map
      (fun bench ->
        let program = Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_none) in
        let golden = Ff_vm.Golden.run program in
        let nsections = Array.length golden.Ff_vm.Golden.sections in
        let classes =
          Array.init nsections (fun i ->
              Ff_inject.Eqclass.for_section golden.Ff_vm.Golden.sections.(i)
                campaign_config.Campaign.bits)
        in
        let nclasses = Array.fold_left (fun acc c -> acc + List.length c) 0 classes in
        (* Proof-kind tally straight from the prover (replay-free). *)
        let masked = ref 0 and crash = ref 0 and benign = ref 0 in
        Array.iteri
          (fun i cls ->
            let proofs =
              Ff_inject.Prover.prove_section golden ~section_index:i
                ~timeout_factor:on_config.Campaign.timeout_factor
                ~model:on_config.Campaign.model on_config.Campaign.prove
                (Array.of_list cls)
            in
            Array.iter
              (function
                | Some (Ff_inject.Outcome.S_detected _) -> incr crash
                | Some (Ff_inject.Outcome.S_sdc _ as o) ->
                  if Ff_inject.Outcome.section_is_masked o then incr masked
                  else incr benign
                | None -> ())
              proofs)
          classes;
        let campaign cfg =
          Array.init nsections (fun i ->
              Campaign.run_section ~classes:classes.(i) golden ~section_index:i cfg)
        in
        ignore (campaign on_config);
        ignore (campaign off_config);
        (* Batch iterations so each sample is well above timer noise for
           the sub-millisecond campaigns, then take best-of-3. *)
        let _, est = wall (fun () -> campaign off_config) in
        let iters = max 1 (min 16 (int_of_float (ceil (0.02 /. Float.max 1e-6 est)))) in
        let run_batch cfg =
          let res = ref [||] in
          let _, s =
            wall (fun () ->
                for _ = 1 to iters do
                  res := campaign cfg
                done)
          in
          (!res, s /. float_of_int iters)
        in
        let reps = 3 in
        let best_on = ref infinity and best_off = ref infinity in
        let on_results = ref [||] and off_results = ref [||] in
        for _ = 1 to reps do
          let r_on, s_on = run_batch on_config in
          if s_on < !best_on then best_on := s_on;
          on_results := r_on;
          let r_off, s_off = run_batch off_config in
          if s_off < !best_off then best_off := s_off;
          off_results := r_off
        done;
        let identical =
          same
            (Array.map (fun r -> r.Campaign.s_classes) !on_results)
            (Array.map (fun r -> r.Campaign.s_classes) !off_results)
        in
        {
          pr_name = bench.Defs.name;
          pr_classes = nclasses;
          pr_masked = !masked;
          pr_crash = !crash;
          pr_benign = !benign;
          pr_on_s = !best_on;
          pr_off_s = !best_off;
          pr_identical = identical;
        })
      Registry.all
  in
  prune_rows := rows;
  let t =
    Ff_support.Table.create
      ~title:"Static outcome prover: classes proved without replay (V_none, serial)"
      [
        ("Benchmark", Ff_support.Table.Left);
        ("Classes", Ff_support.Table.Right);
        ("Proved", Ff_support.Table.Right);
        ("Masked", Ff_support.Table.Right);
        ("Crash", Ff_support.Table.Right);
        ("Benign", Ff_support.Table.Right);
        ("Prune", Ff_support.Table.Right);
        ("On s", Ff_support.Table.Right);
        ("Off s", Ff_support.Table.Right);
        ("Speedup", Ff_support.Table.Right);
        ("Identical", Ff_support.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Ff_support.Table.add_row t
        [
          r.pr_name;
          string_of_int r.pr_classes;
          string_of_int (pr_proved r);
          string_of_int r.pr_masked;
          string_of_int r.pr_crash;
          string_of_int r.pr_benign;
          Printf.sprintf "%.1f%%" (100.0 *. pr_ratio r);
          Printf.sprintf "%.3f" r.pr_on_s;
          Printf.sprintf "%.3f" r.pr_off_s;
          Printf.sprintf "%.2fx" (pr_speedup r);
          string_of_bool r.pr_identical;
        ])
    rows;
  Ff_support.Table.print t

let emit_prune_json () =
  match !prune_rows with
  | [] -> ()
  | rows ->
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    add "{\n  \"benchmarks\": [";
    List.iteri
      (fun i r ->
        add
          "%s\n    { \"name\": %S, \"classes\": %d, \"proved\": %d, \"residual\": %d, \
           \"masked\": %d, \"crash\": %d, \"benign\": %d, \"prune_ratio\": %.4f, \
           \"injections_avoided\": %d, \"prove_on_s\": %.6f, \"prove_off_s\": %.6f, \
           \"speedup\": %.3f, \"identical\": %b }"
          (if i = 0 then "" else ",")
          r.pr_name r.pr_classes (pr_proved r)
          (r.pr_classes - pr_proved r)
          r.pr_masked r.pr_crash r.pr_benign (pr_ratio r) (pr_proved r) r.pr_on_s
          r.pr_off_s (pr_speedup r) r.pr_identical)
      rows;
    let best = List.fold_left (fun acc r -> Float.max acc (pr_ratio r)) 0.0 rows in
    let aggregate = pr_aggregate rows in
    add "\n  ],\n  \"best_prune_ratio\": %.4f,\n  \"aggregate_speedup\": %.3f\n}\n" best
      aggregate;
    let oc = open_out "BENCH_prune.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote BENCH_prune.json (best prune ratio %.1f%%, aggregate speedup %.2fx)\n%!"
      (100.0 *. best) aggregate

(* --- fault models: per-model campaign throughput and prune ratio --------- *)

type fault_row = {
  fr_model : string;
  fr_classes : int;
  fr_sites : int;
  fr_proved : int;
  fr_serial_s : float;
  fr_identical : bool;  (* serial == pooled, bit for bit *)
}

let fault_rows : fault_row list ref = ref []

let fr_ratio r =
  if r.fr_classes > 0 then float_of_int r.fr_proved /. float_of_int r.fr_classes
  else 0.0

let fr_throughput r =
  if r.fr_serial_s > 0.0 then float_of_int r.fr_sites /. r.fr_serial_s else 0.0

(* The best prune ratio among the register models ([bitflip], [bitflip:N]);
   the prover abstains on every other model. *)
let fr_bitflip_prune rows =
  List.fold_left
    (fun acc r ->
      if String.length r.fr_model >= 7 && String.sub r.fr_model 0 7 = "bitflip" then
        Float.max acc (fr_ratio r)
      else acc)
    0.0 rows

let print_faults config =
  (* One campaign per built-in fault model over LUD (V_none): identity
     between the serial and pooled runs is the gate (a model whose
     injection depends on domain count would diverge here), throughput
     and the prover's prune ratio are the tracked metrics. The prover
     abstains wholesale on non-register models, so their prune ratio is
     structurally 0. *)
  let p = Lazy.force pool in
  let bench = Option.get (Registry.find "LUD") in
  let program = Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_none) in
  let golden = Ff_vm.Golden.run program in
  let nsections = Array.length golden.Ff_vm.Golden.sections in
  let rows =
    List.map
      (fun model ->
        let cfg =
          {
            config.Pipeline.campaign with
            Campaign.model;
            prove = Ff_inject.Prover.on;
          }
        in
        let classes =
          Array.init nsections (fun i ->
              Ff_inject.Eqclass.for_section ~model
                golden.Ff_vm.Golden.sections.(i) cfg.Campaign.bits)
        in
        let nclasses = Array.fold_left (fun acc c -> acc + List.length c) 0 classes in
        let nsites =
          Array.fold_left
            (fun acc c -> acc + Ff_inject.Eqclass.total_sites c)
            0 classes
        in
        let proved = ref 0 in
        Array.iteri
          (fun i cls ->
            Ff_inject.Prover.prove_section golden ~section_index:i
              ~timeout_factor:cfg.Campaign.timeout_factor ~model cfg.Campaign.prove
              (Array.of_list cls)
            |> Array.iter (function Some _ -> incr proved | None -> ()))
          classes;
        let campaign ?pool () =
          Array.init nsections (fun i ->
              Campaign.run_section ?pool ~classes:classes.(i) golden
                ~section_index:i cfg)
        in
        let serial = campaign () in
        let pooled = campaign ~pool:p () in
        let identical =
          same
            (Array.map (fun r -> r.Campaign.s_classes) serial)
            (Array.map (fun r -> r.Campaign.s_classes) pooled)
        in
        let _, est = wall (fun () -> campaign ()) in
        let iters = max 1 (min 16 (int_of_float (ceil (0.02 /. Float.max 1e-6 est)))) in
        let best = ref infinity in
        for _ = 1 to 3 do
          let _, sec =
            wall (fun () ->
                for _ = 1 to iters do
                  ignore (campaign ())
                done)
          in
          let per = sec /. float_of_int iters in
          if per < !best then best := per
        done;
        {
          fr_model = Ff_inject.Fault_model.to_string model;
          fr_classes = nclasses;
          fr_sites = nsites;
          fr_proved = !proved;
          fr_serial_s = !best;
          fr_identical = identical;
        })
      Ff_inject.Fault_model.builtin
  in
  fault_rows := rows;
  let t =
    Ff_support.Table.create
      ~title:"Fault models: LUD (V_none) campaign per model (serial, prover on)"
      [
        ("Model", Ff_support.Table.Left);
        ("Classes", Ff_support.Table.Right);
        ("Sites", Ff_support.Table.Right);
        ("Proved", Ff_support.Table.Right);
        ("Prune", Ff_support.Table.Right);
        ("Serial s", Ff_support.Table.Right);
        ("Sites/s", Ff_support.Table.Right);
        ("Identical", Ff_support.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Ff_support.Table.add_row t
        [
          r.fr_model;
          string_of_int r.fr_classes;
          string_of_int r.fr_sites;
          string_of_int r.fr_proved;
          Printf.sprintf "%.1f%%" (100.0 *. fr_ratio r);
          Printf.sprintf "%.3f" r.fr_serial_s;
          Printf.sprintf "%.0f" (fr_throughput r);
          string_of_bool r.fr_identical;
        ])
    rows;
  Ff_support.Table.print t

let emit_faults_json () =
  match !fault_rows with
  | [] -> ()
  | rows ->
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    add "{\n  \"models\": [";
    List.iteri
      (fun i r ->
        add
          ("%s\n    { \"model\": %S, \"classes\": %d, \"sites\": %d, \"proved\": %d, "
          ^^ "\"prune_ratio\": %.4f, \"serial_s\": %.6f, \"throughput_sites_s\": %.1f, "
          ^^ "\"identical\": %b }")
          (if i = 0 then "" else ",")
          r.fr_model r.fr_classes r.fr_sites r.fr_proved (fr_ratio r) r.fr_serial_s
          (fr_throughput r) r.fr_identical)
      rows;
    let identical = List.for_all (fun r -> r.fr_identical) rows in
    let bitflip_prune = fr_bitflip_prune rows in
    add "\n  ],\n  \"identical\": %b,\n  \"bitflip_prune_ratio\": %.4f\n}\n" identical
      bitflip_prune;
    let oc = open_out "BENCH_faults.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote BENCH_faults.json (%d models, bitflip prune %.1f%%)\n%!"
      (List.length rows) (100.0 *. bitflip_prune)

(* --- detect: duplication-vs-detector protection economics ---------------- *)

type detect_row = {
  dr_bench : string;
  dr_total_value : int;
  dr_target_value : int;
  dr_pure_value : int;
  dr_pure_cost : int;
  dr_mixed_value : int;
  dr_mixed_cost : int;
  dr_detectors : int;
  dr_candidates : int;
  dr_dropped : int;
  dr_fp_fires : int;
  dr_coverage_replays : int;
  dr_work : int;
  dr_identical : bool;  (* serial == pooled protect, byte for byte *)
  dr_serial_s : float;
}

let detect_rows : detect_row list ref = ref []

let dr_saving r =
  if r.dr_pure_cost > 0 then
    1.0 -. (float_of_int r.dr_mixed_cost /. float_of_int r.dr_pure_cost)
  else 0.0

let dr_fp_fires rows = List.fold_left (fun acc r -> acc + r.dr_fp_fires) 0 rows

(* On some benchmark the mixed plan reaches the target strictly cheaper
   than pure duplication. *)
let dr_detector_win rows =
  List.exists
    (fun r -> r.dr_mixed_value >= r.dr_target_value && r.dr_mixed_cost < r.dr_pure_cost)
    rows

let print_detect config =
  (* Detector synthesis + injection-measured coverage + mixed knapsack on
     the two benchmarks where shared detectors are economical, at the
     paper's 0.9 protection target. The gates: the serial and pooled
     protect runs must be byte-identical (report and Pareto JSON), the
     surviving detectors must have fired zero times on benign validation
     runs, and on at least one benchmark the mixed selection must reach
     the target value strictly cheaper than pure duplication. *)
  let p = Lazy.force pool in
  let target = 0.9 in
  let open Ff_detect in
  let rows =
    List.map
      (fun name ->
        let bench = Option.get (Registry.find name) in
        let program =
          Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_large)
        in
        let analysis = Pipeline.analyze ~pool:p config program in
        let serial, serial_s =
          wall (fun () -> Protect.run ~pool:Pool.serial config analysis ~target)
        in
        let pooled = Protect.run ~pool:p config analysis ~target in
        let identical =
          String.equal (Protect.report serial) (Protect.report pooled)
          && String.equal (Protect.pareto_json serial) (Protect.pareto_json pooled)
        in
        let synth = Option.get serial.Protect.r_synth in
        let total = serial.Protect.r_select.Select.t_total_value in
        {
          dr_bench = name;
          dr_total_value = total;
          dr_target_value = Fastflip.Knapsack.integer_target ~total target;
          dr_pure_value = serial.Protect.r_pure.Fastflip.Knapsack.value;
          dr_pure_cost = serial.Protect.r_pure.Fastflip.Knapsack.cost;
          dr_mixed_value = serial.Protect.r_mixed.Select.sel_value;
          dr_mixed_cost = serial.Protect.r_mixed.Select.sel_cost;
          dr_detectors = Array.length serial.Protect.r_mixed.Select.sel_detectors;
          dr_candidates =
            Array.fold_left
              (fun acc a -> acc + Array.length a)
              0 synth.Synthesize.candidates;
          dr_dropped = synth.Synthesize.dropped;
          dr_fp_fires = synth.Synthesize.fp_fires;
          dr_coverage_replays =
            List.fold_left
              (fun a c -> a + c.Coverage.c_replays)
              0 serial.Protect.r_coverages;
          dr_work = serial.Protect.r_work;
          dr_identical = identical;
          dr_serial_s = serial_s;
        })
      [ "Campipe"; "BScholes" ]
  in
  detect_rows := rows;
  let t =
    Ff_support.Table.create
      ~title:"Detectors vs duplication at the 0.9 protection target (V_large)"
      [
        ("Bench", Ff_support.Table.Left);
        ("Cands", Ff_support.Table.Right);
        ("Chosen", Ff_support.Table.Right);
        ("Pure cost", Ff_support.Table.Right);
        ("Mixed cost", Ff_support.Table.Right);
        ("Saving", Ff_support.Table.Right);
        ("FP", Ff_support.Table.Right);
        ("Identical", Ff_support.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Ff_support.Table.add_row t
        [
          r.dr_bench;
          string_of_int r.dr_candidates;
          string_of_int r.dr_detectors;
          string_of_int r.dr_pure_cost;
          string_of_int r.dr_mixed_cost;
          Printf.sprintf "%.1f%%" (100.0 *. dr_saving r);
          string_of_int r.dr_fp_fires;
          string_of_bool r.dr_identical;
        ])
    rows;
  Ff_support.Table.print t

let emit_detect_json () =
  match !detect_rows with
  | [] -> ()
  | rows ->
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    add "{\n  \"benches\": [";
    List.iteri
      (fun i r ->
        add
          ("%s\n    { \"bench\": %S, \"total_value\": %d, \"target_value\": %d, "
          ^^ "\"pure_value\": %d, \"pure_cost\": %d, \"mixed_value\": %d, "
          ^^ "\"mixed_cost\": %d, \"detectors\": %d, \"candidates\": %d, "
          ^^ "\"dropped\": %d, \"fp\": %d, \"coverage_replays\": %d, "
          ^^ "\"work\": %d, \"saving\": %.4f, \"identical\": %b, \"serial_s\": %.6f }")
          (if i = 0 then "" else ",")
          r.dr_bench r.dr_total_value r.dr_target_value r.dr_pure_value
          r.dr_pure_cost r.dr_mixed_value r.dr_mixed_cost r.dr_detectors
          r.dr_candidates r.dr_dropped r.dr_fp_fires r.dr_coverage_replays
          r.dr_work (dr_saving r) r.dr_identical r.dr_serial_s)
      rows;
    let identical = List.for_all (fun r -> r.dr_identical) rows in
    let fp_fires = dr_fp_fires rows in
    let detector_win = dr_detector_win rows in
    add "\n  ],\n  \"identical\": %b,\n  \"fp_fires\": %d,\n  \"detector_win\": %b\n}\n"
      identical fp_fires detector_win;
    let oc = open_out "BENCH_detect.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf
      "wrote BENCH_detect.json (best saving %.1f%%, %d benign false positives)\n%!"
      (100.0 *. List.fold_left (fun acc r -> Float.max acc (dr_saving r)) 0.0 rows)
      fp_fires

(* --- analysis service: cold vs warm latency, concurrent throughput ------ *)

type server_result = {
  sv_cold_ms : float;
  sv_warm_p50_ms : float;
  sv_warm_p95_ms : float;
  sv_throughput_rps : float;
  sv_clients : int;
  sv_requests : int;
  sv_identical : bool;
}

let server_result : server_result option ref = ref None

let sv_speedup r =
  if r.sv_warm_p50_ms > 0.0 then r.sv_cold_ms /. r.sv_warm_p50_ms else 0.0

let print_server config =
  (* Measure the daemon end to end over its real Unix-socket transport:
     one cold analysis, then warm repeats (cache hits), then a concurrent
     burst from several client threads. Every response — cold, warm, and
     concurrent — must be byte-identical to what the one-shot CLI prints
     for the same request; a divergence fails the gate. *)
  let module Protocol = Ff_serve.Protocol in
  let module Client = Ff_serve.Client in
  let bench = Option.get (Registry.find "LUD") in
  let source = bench.Defs.source Defs.V_none in
  let bits =
    match config.Pipeline.campaign.Campaign.bits with
    | Site.All_bits -> []
    | Site.Bit_list l -> l
  in
  let query =
    {
      Protocol.default_query with
      Protocol.q_bits = bits;
      q_samples = config.Pipeline.sensitivity_samples;
    }
  in
  (* The identity oracle: exactly what `fastflip analyze` would print. *)
  let reference =
    let qconfig =
      Ff_serve.Engine.config_of ~model:query.Protocol.q_model ~bits
        ~samples:query.Protocol.q_samples ~epsilon:query.Protocol.q_epsilon
        ~prove:query.Protocol.q_prove ()
    in
    let analysis =
      Pipeline.analyze ~store:(Fastflip.Store.create ()) qconfig
        (Ff_lang.Frontend.compile_exn source)
    in
    Ff_serve.Report.analysis ~target:query.Protocol.q_target analysis
  in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ff_bench_%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let server =
    Thread.create (fun () -> Ff_serve.Server.run ~socket ~pool:(Lazy.force pool) ()) ()
  in
  let deadline = now () +. 10.0 in
  while not (Sys.file_exists socket) && now () < deadline do
    Thread.delay 0.01
  done;
  if not (Sys.file_exists socket) then failwith "daemon did not come up within 10s";
  let req = Protocol.Analyze { source; query } in
  let identical = Atomic.make true in
  let ask () =
    match Client.request ~socket req with
    | Ok (Protocol.Report text) ->
      if not (String.equal text reference) then Atomic.set identical false
    | Ok (Protocol.Error msg) -> failwith ("daemon error: " ^ msg)
    | Ok _ -> failwith "unexpected daemon response"
    | Error msg -> failwith msg
  in
  let (), cold_s = wall ask in
  (* Warm latencies include a fresh connect per request, like a real
     short-lived client would pay. *)
  let repeats = 40 in
  let warm = Array.init repeats (fun _ -> snd (wall ask)) in
  Array.sort compare warm;
  let p50 = warm.(repeats * 50 / 100) and p95 = warm.(repeats * 95 / 100) in
  let clients = 4 and per_client = 25 in
  let burst () =
    let threads =
      List.init clients (fun _ ->
          Thread.create
            (fun () ->
              Client.with_connection ~socket (fun fd ->
                  for _ = 1 to per_client do
                    match Client.exchange fd req with
                    | Ok (Protocol.Report text) when String.equal text reference -> ()
                    | _ -> Atomic.set identical false
                  done))
            ())
    in
    List.iter Thread.join threads
  in
  let (), burst_s = wall burst in
  (match Client.request ~socket Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | _ -> Atomic.set identical false);
  Thread.join server;
  let r =
    {
      sv_cold_ms = cold_s *. 1e3;
      sv_warm_p50_ms = p50 *. 1e3;
      sv_warm_p95_ms = p95 *. 1e3;
      sv_throughput_rps =
        (if burst_s > 0.0 then float_of_int (clients * per_client) /. burst_s else 0.0);
      sv_clients = clients;
      sv_requests = 1 + repeats + (clients * per_client);
      sv_identical = Atomic.get identical;
    }
  in
  server_result := Some r;
  let t =
    Ff_support.Table.create
      ~title:
        (Printf.sprintf "fastflip serve: LUD (V_none) over a Unix socket, %d clients"
           clients)
      [
        ("Metric", Ff_support.Table.Left);
        ("Value", Ff_support.Table.Right);
      ]
  in
  List.iter
    (fun row -> Ff_support.Table.add_row t row)
    [
      [ "cold request ms"; Printf.sprintf "%.2f" r.sv_cold_ms ];
      [ "warm p50 ms"; Printf.sprintf "%.2f" r.sv_warm_p50_ms ];
      [ "warm p95 ms"; Printf.sprintf "%.2f" r.sv_warm_p95_ms ];
      [ "warm speedup"; Printf.sprintf "%.0fx" (sv_speedup r) ];
      [ "concurrent throughput req/s"; Printf.sprintf "%.0f" r.sv_throughput_rps ];
      [ "identical to one-shot CLI"; string_of_bool r.sv_identical ];
    ];
  Ff_support.Table.print t

let emit_server_json () =
  match !server_result with
  | None -> ()
  | Some r ->
    let oc = open_out "BENCH_server.json" in
    Printf.fprintf oc
      "{\n  \"cold_ms\": %.3f,\n  \"warm_p50_ms\": %.3f,\n  \"warm_p95_ms\": %.3f,\n  \
       \"warm_speedup\": %.1f,\n  \"clients\": %d,\n  \"requests\": %d,\n  \
       \"throughput_rps\": %.1f,\n  \"identical\": %b\n}\n"
      r.sv_cold_ms r.sv_warm_p50_ms r.sv_warm_p95_ms (sv_speedup r) r.sv_clients
      r.sv_requests r.sv_throughput_rps r.sv_identical;
    close_out oc;
    Printf.printf "wrote BENCH_server.json (warm speedup %.0fx, %.0f req/s)\n%!"
      (sv_speedup r) r.sv_throughput_rps

(* --- sharded store: O(dirty) saves, parallel writers --------------------- *)

type store_result = {
  so_records : int;
  so_dirty : int;
  so_incremental_s : float;
  so_full_s : float;
  so_writer_saves : int;
  so_writer_batch : int;
  so_serial_s : float;
  so_parallel_s : float;
  so_saves_expected : int;
  so_saves_counted : int;
  so_cores : int;
  so_identical : bool;
}

let store_result : store_result option ref = ref None

let so_speedup r =
  if r.so_incremental_s > 0.0 then r.so_full_s /. r.so_incremental_s else 0.0

let so_scaling r =
  if r.so_parallel_s > 0.0 then r.so_serial_s /. r.so_parallel_s else 0.0

let print_store config =
  let module Store = Fastflip.Store in
  let module Persist = Fastflip.Persist in
  (* One real quick-config record, cloned under synthetic keys: the
     persistence layer sees realistic record bytes at service-scale
     store size without paying for thousands of campaigns. *)
  let bench = Option.get (Registry.find "LUD") in
  let program = Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_none) in
  let proto_store = Store.create () in
  let _ = Pipeline.analyze ~store:proto_store config program in
  let proto = List.hd (Store.records proto_store) in
  let mk i =
    {
      proto with
      Store.rec_key =
        {
          Store.code_hash = Int64.of_int (0x9e37 + (i * 257));
          input_hash = Int64.of_int (0xace1 + (i * 13));
          config_hash = 7L;
        };
    }
  in
  (* Records are real analysis output (~11 KB each in the compact
     encoding), so saves here cost what real ones do. *)
  let n = 256 and dirty = 4 in
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ff_bench_store_%d" (Unix.getpid ()))
  in
  let cleanup path =
    (try Sys.remove path with Sys_error _ -> ());
    (try Sys.remove (path ^ ".lock") with Sys_error _ -> ());
    for i = 0 to Persist.max_shards - 1 do
      let sp = Persist.shard_path path i in
      (try Sys.remove sp with Sys_error _ -> ());
      (try Sys.remove (sp ^ ".lock") with Sys_error _ -> ())
    done
  in
  (* Every save below is also counted by the persistence layer's own
     telemetry; the JSON asserts the counter moved in step with the
     saves actually performed. *)
  let was_enabled = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let m_saves = Telemetry.counter "persist.saves" in
  let saves0 = Telemetry.value m_saves in
  let saves_expected = Atomic.make 0 in
  let save st path =
    Atomic.incr saves_expected;
    Persist.save st ~path
  in
  (* O(dirty): an incremental save of [dirty] changed records into an
     [n]-record store, vs a full rewrite of the same store (every shard
     log plus the manifest) into a fresh path. *)
  let opath = base ^ ".odirty.bin" in
  cleanup opath;
  let st = Store.create () in
  for i = 0 to n - 1 do
    Store.add st (mk i)
  done;
  ignore (save st opath);
  let reps = 7 in
  let best_incremental = ref infinity in
  for r = 1 to reps do
    (* Replace [dirty] existing keys, so the store size stays [n]. *)
    for i = 0 to dirty - 1 do
      Store.add st (mk ((r * dirty) + i))
    done;
    let (), s = wall (fun () -> ignore (save st opath)) in
    if s < !best_incremental then best_incremental := s
  done;
  let fpath = base ^ ".full.bin" in
  let best_full = ref infinity in
  for _ = 1 to reps do
    cleanup fpath;
    let (), s = wall (fun () -> ignore (save st fpath)) in
    if s < !best_full then best_full := s
  done;
  (* The delta log must still read back bit-identically. *)
  let identical =
    match Persist.load ~path:opath with
    | Error _ -> false
    | Ok (loaded, skipped) ->
      skipped = 0
      && Store.size loaded = n
      && List.for_all
           (fun (r : Store.section_record) ->
             match Store.find loaded r.Store.rec_key with
             | Some found -> Persist.roundtrip_equal r found
             | None -> false)
           (Store.records st)
  in
  (* Two writers on disjoint shards: writer A's keys hash to the lower
     half of the default layout, writer B's to the upper half, so the
     per-shard locks never collide; each performs [saves] incremental
     saves of [batch] fresh records against a pre-seeded [n]-record
     store, serially and then from two domains at once. *)
  let saves = 12 and batch = 4 in
  let a_pool, b_pool =
    let need = saves * batch in
    let a = ref [] and b = ref [] and na = ref 0 and nb = ref 0 and i = ref 100000 in
    while !na < need || !nb < need do
      let r = mk !i in
      incr i;
      if Persist.shard_of ~shards:Persist.default_shards r.Store.rec_key
         < Persist.default_shards / 2
      then begin
        if !na < need then begin a := r :: !a; incr na end
      end
      else if !nb < need then begin b := r :: !b; incr nb end
    done;
    (!a, !b)
  in
  let batches records =
    let rec take k rs =
      if k = 0 then ([], rs)
      else
        match rs with
        | [] -> ([], [])
        | x :: rest ->
          let t, d = take (k - 1) rest in
          (x :: t, d)
    in
    let rec go rs =
      match rs with
      | [] -> []
      | _ ->
        let b, rest = take batch rs in
        b :: go rest
    in
    go records
  in
  let a_batches = batches a_pool and b_batches = batches b_pool in
  let seed path =
    cleanup path;
    let s = Store.create () in
    for i = 0 to n - 1 do
      Store.add s (mk i)
    done;
    ignore (save s path)
  in
  (* Writers start from a loaded copy of the seed store, as a real
     process would — their in-memory view covers the disk, so saves stay
     pure appends. *)
  let prep path =
    match Persist.load ~path with
    | Ok (st, _) -> st
    | Error e -> failwith ("store bench: reload failed: " ^ e)
  in
  let writer st bs path () =
    List.iter
      (fun b ->
        List.iter (Store.add st) b;
        ignore (save st path))
      bs
  in
  let wreps = 3 in
  let best_serial = ref infinity and best_parallel = ref infinity in
  for _ = 1 to wreps do
    let spath = base ^ ".serial.bin" and ppath = base ^ ".parallel.bin" in
    seed spath;
    seed ppath;
    let sa = prep spath and sb = prep spath in
    let (), s =
      wall (fun () ->
          writer sa a_batches spath ();
          writer sb b_batches spath ())
    in
    if s < !best_serial then best_serial := s;
    let pa = prep ppath and pb = prep ppath in
    let (), p =
      wall (fun () ->
          let da = Domain.spawn (writer pa a_batches ppath) in
          let db = Domain.spawn (writer pb b_batches ppath) in
          Domain.join da;
          Domain.join db)
    in
    if p < !best_parallel then best_parallel := p;
    cleanup spath;
    cleanup ppath
  done;
  cleanup opath;
  cleanup fpath;
  let saves_counted = Telemetry.value m_saves - saves0 in
  Telemetry.set_enabled was_enabled;
  let r =
    {
      so_records = n;
      so_dirty = dirty;
      so_incremental_s = !best_incremental;
      so_full_s = !best_full;
      so_writer_saves = saves;
      so_writer_batch = batch;
      so_serial_s = !best_serial;
      so_parallel_s = !best_parallel;
      so_saves_expected = Atomic.get saves_expected;
      so_saves_counted = saves_counted;
      so_cores = Domain.recommended_domain_count ();
      so_identical = identical;
    }
  in
  store_result := Some r;
  let t =
    Ff_support.Table.create
      ~title:
        (Printf.sprintf
           "sharded store: %d records, %d dirty, 2 writers x %d saves of %d" n dirty
           saves batch)
      [ ("Metric", Ff_support.Table.Left); ("Value", Ff_support.Table.Right) ]
  in
  List.iter
    (fun row -> Ff_support.Table.add_row t row)
    [
      [ "incremental save ms"; Printf.sprintf "%.3f" (r.so_incremental_s *. 1e3) ];
      [ "full rewrite ms"; Printf.sprintf "%.3f" (r.so_full_s *. 1e3) ];
      [ "O(dirty) speedup"; Printf.sprintf "%.1fx" (so_speedup r) ];
      [ "2 writers serial s"; Printf.sprintf "%.3f" r.so_serial_s ];
      [ "2 writers parallel s"; Printf.sprintf "%.3f" r.so_parallel_s ];
      [ "writer scaling"; Printf.sprintf "%.2fx" (so_scaling r) ];
      [ "saves counted"; Printf.sprintf "%d/%d" r.so_saves_counted r.so_saves_expected ];
      [ "roundtrip identical"; string_of_bool r.so_identical ];
    ];
  Ff_support.Table.print t

let emit_store_json () =
  match !store_result with
  | None -> ()
  | Some r ->
    let oc = open_out "BENCH_store.json" in
    Printf.fprintf oc
      "{\n  \"records\": %d,\n  \"dirty\": %d,\n  \"incremental_save_s\": %.6f,\n  \
       \"full_rewrite_s\": %.6f,\n  \"odirty_speedup\": %.3f,\n  \"writers\": 2,\n  \
       \"cores\": %d,\n  \
       \"writer_saves\": %d,\n  \"writer_batch\": %d,\n  \"serial_s\": %.6f,\n  \
       \"parallel_s\": %.6f,\n  \"writer_scaling\": %.3f,\n  \"saves_expected\": %d,\n  \
       \"saves_counted\": %d,\n  \"identical\": %b\n}\n"
      r.so_records r.so_dirty r.so_incremental_s r.so_full_s (so_speedup r) r.so_cores
      r.so_writer_saves r.so_writer_batch r.so_serial_s r.so_parallel_s
      (so_scaling r) r.so_saves_expected r.so_saves_counted r.so_identical;
    close_out oc;
    Printf.printf "wrote BENCH_store.json (O(dirty) speedup %.1fx, writer scaling %.2fx)\n%!"
      (so_speedup r) (so_scaling r)

(* --- Bechamel micro-benchmarks ----------------------------------------- *)

let micro () =
  let open Bechamel in
  let lud_program =
    Ff_lang.Frontend.compile_exn (Lud.benchmark.Defs.source Defs.V_none)
  in
  let golden = Ff_vm.Golden.run lud_program in
  let config = quick_config in
  let section_campaign () =
    ignore (Campaign.run_section golden ~section_index:0 config.Pipeline.campaign)
  in
  let golden_run () = ignore (Ff_vm.Golden.run lud_program) in
  let site_enum () =
    Array.iter
      (fun s -> ignore (Site.count_section s config.Pipeline.campaign.Campaign.bits))
      golden.Ff_vm.Golden.sections
  in
  let analysis = lazy (Pipeline.analyze config lud_program) in
  let knap () =
    let a = Lazy.force analysis in
    ignore (Fastflip.Knapsack.solve (Fastflip.Knapsack.items_of_valuation a.Pipeline.valuation))
  in
  let propagation () =
    let a = Lazy.force analysis in
    let specs =
      Array.map (fun r -> r.Fastflip.Store.rec_sensitivity) a.Pipeline.sections
    in
    ignore (Ff_chisel.Propagate.run golden ~specs)
  in
  let compile () = ignore (Ff_lang.Frontend.compile_exn (Lud.benchmark.Defs.source Defs.V_none)) in
  let tests =
    [
      Test.make ~name:"table1/site-enumeration" (Staged.stage site_enum);
      Test.make ~name:"table2/knapsack-solve" (Staged.stage knap);
      Test.make ~name:"table3/section-campaign" (Staged.stage section_campaign);
      Test.make ~name:"figure1/chisel-propagation" (Staged.stage propagation);
      Test.make ~name:"substrate/golden-run" (Staged.stage golden_run);
      Test.make ~name:"substrate/frontend-compile" (Staged.stage compile);
    ]
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all (Benchmark.cfg ~quota ~kde:(Some 10) ()) Toolkit.Instance.[ monotonic_clock ] test
  in
  let analyze raws =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raws
  in
  Printf.printf "\nBechamel micro-benchmarks (ns per run, OLS fit):\n";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%.0f ns" e
            | Some [] | None -> "n/a"
          in
          Printf.printf "  %-32s %s\n%!" name estimate)
        results)
    tests

(* --- floors: the one place a bench result is judged ---------------------- *)

(* Every identity check and performance floor on a bench result is one
   row here, read from the artifact's typed result. [main] checks the rows
   of the artifacts that ran only after each has written its BENCH_*.json,
   so a failing artifact is still on disk (and uploaded by CI) when the run
   exits 1. [key] names the JSON field the gated value is written under;
   the [metrics] rows apply when --metrics exports the telemetry registry. *)

type op = Ge | Gt | Le

type reading =
  | Holds of bool  (** must be true *)
  | Num of float * op * float  (** value, comparison, floor *)

type floor = { artifact : string; label : string; key : string; read : unit -> reading }

let passes = function
  | Holds b -> b
  | Num (v, Ge, f) -> v >= f
  | Num (v, Gt, f) -> v > f
  | Num (v, Le, f) -> v <= f

(* A baseline that is not positive is no measurement: a floor scaled from
   it becomes unreachable. *)
let positive x = if x > 0.0 then x else infinity

let floors =
  let row artifact key label read = { artifact; key; label; read } in
  let parallel f () = f !phase_timings in
  let vm f () = f (Option.get !vm_result) in
  let prune f () = f !prune_rows in
  let faults f () = f !fault_rows in
  let detect f () = f !detect_rows in
  let server f () = f (Option.get !server_result) in
  let store f () = f (Option.get !store_result) in
  let exported name () =
    let counters = (Telemetry.snapshot ()).Telemetry.snap_counters in
    Num (float_of_int (Option.value ~default:0 (List.assoc_opt name counters)), Gt, 0.0)
  in
  let all ok rows = Holds (List.for_all ok rows) in
  let best_speedup ts = List.fold_left (fun acc t -> Float.max acc (speedup_of t)) 0.0 ts in
  let worst_throughput rows =
    List.fold_left (fun acc r -> Float.min acc (fr_throughput r)) infinity rows
  in
  [
    row "parallel" "identical" "a parallel phase diverged from the serial run"
      (parallel (all (fun t -> t.identical)));
    row "parallel" "speedup" "parallel never beats serial in any phase"
      (parallel (fun ts -> Num (best_speedup ts, Gt, 1.0)));
    row "vm" "identical" "unboxed engine diverged from the boxed oracle"
      (vm (fun r -> Holds r.vm_identical));
    row "vm" "campaign_speedup" "unboxed engine regression"
      (vm (fun r -> Num (vm_speedup r, Ge, 1.5)));
    row "prune" "identical" "prover-pruned campaign diverged from full replay"
      (prune (all (fun r -> r.pr_identical)));
    row "prune" "aggregate_speedup" "prover makes campaigns slower"
      (prune (fun rows -> Num (pr_aggregate rows, Ge, 1.0)));
    row "faults" "identical" "a fault-model campaign diverged between serial and pooled runs"
      (faults (all (fun r -> r.fr_identical)));
    row "faults" "bitflip_prune_ratio" "bitflip prover stopped pruning"
      (faults (fun rows -> Num (fr_bitflip_prune rows, Ge, 0.2)));
    (* Orders of magnitude below observed throughput: rejects only a
       pathologically slow (or zero) model. *)
    row "faults" "throughput_sites_s" "the slowest fault model replays too slowly"
      (faults (fun rows -> Num (worst_throughput rows, Ge, 1000.0)));
    row "detect" "identical" "a protect run diverged between serial and pooled execution"
      (detect (all (fun r -> r.dr_identical)));
    (* Synthesis validation drops every candidate that fires on a benign run. *)
    row "detect" "fp_fires" "detectors fire on benign runs"
      (detect (fun rows -> Num (float_of_int (dr_fp_fires rows), Le, 0.0)));
    row "detect" "detector_win"
      "detectors never beat pure duplication at the target on any benchmark"
      (detect (fun rows -> Holds (dr_detector_win rows)));
    row "server" "identical" "daemon responses diverged from the one-shot CLI"
      (server (fun r -> Holds r.sv_identical));
    (* On the raw latencies: the one-decimal warm_speedup in the JSON
       would round a 9.96x run up to 10.0. *)
    row "server" "cold_ms" "warm p50 is not 10x below the cold request"
      (server (fun r -> Num (r.sv_cold_ms, Ge, 10.0 *. positive r.sv_warm_p50_ms)));
    row "server" "throughput_rps" "no concurrent throughput recorded"
      (server (fun r -> Num (r.sv_throughput_rps, Gt, 0.0)));
    row "store" "identical" "sharded store did not read back bit-identically"
      (store (fun r -> Holds r.so_identical));
    row "store" "odirty_speedup" "incremental save is not O(dirty)"
      (store (fun r -> Num (so_speedup r, Ge, 5.0)));
    row "store" "saves_counted" "persist.saves telemetry undercounted the saves performed"
      (store (fun r ->
           let expected = positive (float_of_int r.so_saves_expected) in
           Num (float_of_int r.so_saves_counted, Ge, expected)));
    (* Two writers on disjoint shards can only beat one-at-a-time with a
       second core; on one core the floor rejects only pathological lock
       serialization. *)
    row "store" "writer_scaling" "disjoint-shard writers do not scale"
      (store (fun r -> Num (so_scaling r, Gt, if r.so_cores >= 2 then 1.0 else 0.5)));
    row "metrics" "campaign.injections" "telemetry export has no campaign counters"
      (exported "campaign.injections");
    row "metrics" "prover.classes_proved" "telemetry export has no prover counters"
      (exported "prover.classes_proved");
  ]

(* The rows of [ran] that fail, one readable line each. *)
let violations ran =
  List.filter_map
    (fun f ->
      if not (List.mem f.artifact ran) then None
      else
        let reading = f.read () in
        if passes reading then None
        else
          let value, op, floor =
            match reading with
            | Holds b -> (string_of_bool b, "=", "true")
            | Num (v, op, floor) ->
              let op = match op with Ge -> ">=" | Gt -> ">" | Le -> "<=" in
              (Printf.sprintf "%g" v, op, Printf.sprintf "%g" floor)
          in
          Some
            (Printf.sprintf "bench gate: %s: %s: %s is %s, floor is %s %s" f.artifact
               f.label f.key value op floor))
    floors

let artifacts =
  [
    ("table1", print_table1);
    ("table2", print_table2);
    ("table3", print_table3);
    ("table4", print_table4);
    ("table5", print_table5);
    ("figure1", print_figure1);
    ("ablations", print_ablations);
    ("evolution", print_evolution);
    ("parallel", print_parallel);
    ("vm", print_vm);
    ("prune", print_prune);
    ("faults", print_faults);
    ("detect", print_detect);
    ("server", print_server);
    ("store", print_store);
  ]

let run_artifact config name f =
  let (), s = wall (fun () -> f config) in
  table_timings := !table_timings @ [ (name, s) ]

(* Arguments are [quick], [micro], artifact names, [--metrics FILE]
   (enable the telemetry registry for the whole run and export it as JSON
   at exit) and [--store FILE] (one persistent incremental store shared by
   every harness analysis). Anything else is a usage error: an unknown
   name must not fall through to "no artifact named, run them all". *)
let parse_args argv =
  let usage fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf
          "bench/main.exe: %s\n\
           usage: main.exe [quick] [ARTIFACT | micro]... [--metrics FILE] [--store FILE]\n\
           known artifacts: %s\n\
           %!"
          msg
          (String.concat " " (List.map fst artifacts));
        exit 2)
      fmt
  in
  let rec go (metrics, store, names) = function
    | [] -> (metrics, store, List.rev names)
    | "--metrics" :: path :: rest -> go (Some path, store, names) rest
    | "--store" :: path :: rest -> go (metrics, Some path, names) rest
    | [ (("--metrics" | "--store") as flag) ] -> usage "%s needs a FILE argument" flag
    | name :: rest
      when String.equal name "quick" || String.equal name "micro"
           || List.mem_assoc name artifacts ->
      go (metrics, store, name :: names) rest
    | arg :: _ -> usage "unknown argument %S" arg
  in
  go (None, None, []) argv

let () =
  let metrics, store_path, names = parse_args (List.tl (Array.to_list Sys.argv)) in
  (match metrics with
  | Some _ ->
    Telemetry.reset ();
    Telemetry.set_enabled true
  | None -> ());
  (match store_path with
  | Some path when Fastflip.Persist.present ~path -> (
    match Fastflip.Persist.load ~path with
    | Ok (st, skipped) ->
      if skipped > 0 then
        Printf.eprintf "warning: store %s: skipped %d corrupt record(s)\n%!" path
          skipped;
      Printf.printf "store: loaded %d record(s) from %s\n%!"
        (Fastflip.Store.size st) path;
      shared_store := Some st
    | Error e ->
      Printf.eprintf "ignoring store %s: %s\n%!" path e;
      shared_store := Some (Fastflip.Store.create ()))
  | Some _ -> shared_store := Some (Fastflip.Store.create ())
  | None -> ());
  let quick = List.mem "quick" names in
  let config = if quick then quick_config else Pipeline.default_config in
  (match List.filter (fun a -> not (String.equal a "quick")) names with
  | [] ->
    Printf.printf
      "FastFlip reproduction: regenerating all evaluation artifacts%s.\n\n%!"
      (if quick then " (quick mode: 4-bit subset)" else "");
    List.iter (fun (name, f) -> run_artifact config name f) artifacts;
    micro ()
  | requested ->
    List.iter
      (fun name ->
        if String.equal name "micro" then micro ()
        else run_artifact config name (List.assoc name artifacts))
      requested);
  (* Each BENCH_*.json is written only when its artifact ran, so a
     single-artifact invocation (e.g. `quick server`) never clobbers the
     others with empty shells. *)
  if !phase_timings <> [] then emit_parallel_json ~quick ();
  emit_vm_json ();
  emit_prune_json ();
  emit_faults_json ();
  emit_detect_json ();
  emit_server_json ();
  emit_store_json ();
  (* The shared store's save-on-exit runs before the metrics export, so
     a --store run's persist.saves counter lands in the JSON. *)
  (match (store_path, !shared_store) with
  | Some path, Some st ->
    let stats = Fastflip.Persist.save st ~path in
    Printf.printf "store: saved %d record(s) to %s (%d appended)\n%!"
      stats.Fastflip.Persist.sv_live path stats.Fastflip.Persist.sv_appended
  | _ -> ());
  (match metrics with
  | Some path ->
    Telemetry.write ~path ();
    Printf.printf "wrote telemetry to %s\n%!" path
  | None -> ());
  if Lazy.is_val pool then Pool.shutdown (Lazy.force pool);
  let ran =
    List.map fst !table_timings @ if Option.is_some metrics then [ "metrics" ] else []
  in
  match violations ran with
  | [] ->
    Printf.printf "bench gate: ok (%d rows hold)\n%!"
      (List.length (List.filter (fun f -> List.mem f.artifact ran) floors))
  | lines ->
    List.iter prerr_endline lines;
    exit 1
