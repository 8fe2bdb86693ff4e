(* The fastflip command-line tool.

   Subcommands:
     compile  <file>      parse/typecheck/lower a program and print its IR
     run      <file>      golden-run a program and print its outputs
     analyze  <file>      full FastFlip analysis: per-pc value/cost table
                          and the knapsack selection for a target
     compare  <file>      FastFlip vs monolithic-baseline utility and work
     bench    <name>      analyze a built-in benchmark (3 versions,
                          incremental store) and print speedups
     list                 list the built-in benchmarks
     security <program>   attacker-fault-model campaign and damage report
     protect  <program>   detector synthesis + mixed duplication/detector
                          Pareto front
     serve    <socket>    analysis-as-a-service daemon with warm state
     query    <socket> <file>   analyze via a running daemon
     shutdown <socket>    stop a running daemon cleanly
     store stat    <path> inspect a persistent store's layout and health
     store compact <path> rewrite a store down to its live records *)

open Cmdliner
module Pipeline = Fastflip.Pipeline
module Campaign = Ff_inject.Campaign
module Site = Ff_inject.Site
module Table = Ff_support.Table
module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry
module Protocol = Ff_serve.Protocol

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile_file path =
  match Ff_lang.Frontend.compile (read_file path) with
  | Ok program -> program
  | Error e ->
    Format.eprintf "%s: %a@." path Ff_lang.Frontend.pp_error e;
    exit 1

(* A source file, or the large version of a built-in benchmark. *)
let compile_program name =
  if Sys.file_exists name then compile_file name
  else
    match Ff_benchmarks.Registry.find name with
    | Some bench ->
      Ff_lang.Frontend.compile_exn
        (bench.Ff_benchmarks.Defs.source Ff_benchmarks.Defs.V_large)
    | None ->
      Printf.eprintf "fastflip: %s is neither a file nor a benchmark (try: %s)\n" name
        (String.concat ", " Ff_benchmarks.Registry.names);
      exit 1

(* Invalid analysis options stop the command with one line on stderr and
   cmdliner's command-line-error status, before any work starts. The
   daemon runs the same check on every query. *)
let check_options ~bits ~samples ~epsilon =
  match Ff_serve.Engine.check_options ~bits ~samples ~epsilon with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "fastflip: %s\n" msg;
    exit Cmd.Exit.cli_error

(* The option-to-config mapping lives in Ff_serve.Engine so the one-shot
   commands and the daemon build the exact same configuration — the
   byte-identity contract between [analyze] and [query] depends on it. *)
let config_of ?(epsilon = 0.0) ?model ?safety_factor ~bits ~samples ~no_prove () =
  check_options ~bits ~samples ~epsilon;
  Ff_serve.Engine.config_of ?model ?safety_factor ~bits ~samples ~epsilon
    ~prove:(not no_prove) ()

(* --- arguments ----------------------------------------------------------- *)

let fault_model_conv =
  let parse s =
    match Ff_inject.Fault_model.of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"MODEL"
    (parse, fun fmt m -> Format.pp_print_string fmt (Ff_inject.Fault_model.to_string m))

let fault_model_arg =
  Arg.(value & opt fault_model_conv Ff_inject.Fault_model.default
         & info [ "fault-model" ] ~docv:"NAME[:PARAMS]"
             ~doc:"Fault model for the injection campaign: $(b,bitflip) (the               default single-bit register flip), $(b,bitflip:N) (an N-bit burst),               $(b,skip) (drop one dynamic instruction), $(b,opcode) (corrupt one               bit of the instruction encoding; invalid results are detected, never               undefined), or $(b,memflip)[$(b,:N)] (flip bits of one buffer element               in the section's entry state). The model is part of the store key, so               different models never share cached results; the default hashes               identically to pre-model stores.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Kernel-language source file.")

(* A fraction outside [0,1] clamps (Knapsack.integer_target); a
   non-finite one is refused here, as the serve protocol refuses it. *)
let target_conv =
  let parse s =
    match float_of_string_opt s with
    | Some t when Float.is_finite t -> Ok t
    | Some _ -> Error (`Msg (Printf.sprintf "target %s is not a finite number" s))
    | None -> Error (`Msg (Printf.sprintf "invalid target %S, expected a number" s))
  in
  Arg.conv ~docv:"V" (parse, Format.pp_print_float)

let target_arg =
  Arg.(value & opt target_conv 0.9 & info [ "t"; "target" ] ~docv:"V"
         ~doc:"Target protection value v_trgt in [0,1]; larger values select                 like 1, negative ones like 0.")

let bits_arg =
  Arg.(value & opt (list int) [] & info [ "bits" ] ~docv:"B1,B2,..."
         ~doc:"Bit positions to inject, each in 0..63 and named once (default: the               stratified 16-bit subset).")

let samples_arg =
  Arg.(value & opt int 200 & info [ "samples"; "sens-samples" ] ~docv:"N"
         ~doc:"Sensitivity-analysis samples per input buffer (at least 0). The telemetry               counters $(b,sensitivity.samples_used) and $(b,sensitivity.work) in               $(b,--metrics) report how many were actually consumed and what they               cost.")

let safety_factor_arg =
  Arg.(value & opt (some float) None & info [ "sens-safety-factor" ] ~docv:"F"
         ~doc:"Safety factor applied to sensitivity Lipschitz estimates (and to               synthesized detector thresholds, which inherit it). Default 1.25.               Part of the store key: runs with different factors never share               cached section records.")

let epsilon_arg =
  Arg.(value & opt float 0.0 & info [ "epsilon" ] ~docv:"E"
         ~doc:"SDC-Bad threshold: SDC magnitudes up to E are acceptable. E must be               finite and at least 0.")

let no_prove_arg =
  Arg.(value & flag & info [ "no-prove" ]
         ~doc:"Disable the static outcome prover pre-pass and replay every               equivalence class (the $(b,FF_PROVE=off) environment variable has               the same effect). Results are bit-identical either way — the               prover only skips replays whose outcome it has already proved —               so this is a triage/measurement knob, not a semantic one. Note               that prove-on and prove-off runs never share $(b,--store) records:               the prover policy is part of the store key.")

let jobs_arg =
  Arg.(value & opt int (Pool.default_domains ()) & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Domains to run injection campaigns and sensitivity sampling on               (default: \\$FF_DOMAINS, else the recommended domain count).               Results are bit-identical for every N.")

let with_jobs jobs k =
  let jobs =
    match Pool.parse_domains (string_of_int jobs) with
    | Ok n -> n
    | Error msg ->
      Printf.eprintf "fastflip: invalid --jobs (%s); running on 1 domain\n%!" msg;
      1
  in
  Pool.with_pool ~domains:jobs k

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write engine telemetry (campaign injection counts, store               hit/miss counts, pool task counts, span timings) as deterministic               JSON to $(docv). Timing and scheduling-dependent fields are               segregated under the top-level \"timings\" key; everything else is               bit-stable across runs with the same seed.")

let with_metrics metrics k =
  match metrics with
  | None -> k ()
  | Some path ->
    Telemetry.reset ();
    Telemetry.set_enabled true;
    let result = k () in
    Telemetry.write ~path ();
    Printf.printf "wrote telemetry to %s\n" path;
    result

let store_arg =
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"PATH"
         ~doc:"Persistent analysis store: loaded before the analysis (section                results whose code, inputs and configuration are unchanged are                reused) and saved back afterwards — the CI workflow of the paper.")

let strict_store_arg =
  Arg.(value & flag & info [ "strict-store" ]
         ~doc:"Refuse to run if the store has corrupt or unreadable records               (the default salvages every intact record and warns).")

let with_store ~strict store_path k =
  match store_path with
  | None -> k (Fastflip.Store.create ())
  | Some path ->
    let store =
      match Fastflip.Persist.open_store ~strict ~path with
      | Error refusal ->
        Printf.eprintf "fastflip: %s\n" refusal;
        exit 1
      | Ok (loaded, warning) -> (
        Option.iter (Printf.eprintf "%s\n") warning;
        match loaded with
        | Some store ->
          Printf.printf "loaded %d section records from %s\n" (Fastflip.Store.size store)
            path;
          store
        | None -> Fastflip.Store.create ())
    in
    let result = k store in
    let stats = Fastflip.Persist.save store ~path in
    Printf.printf "saved %d section records to %s\n" stats.Fastflip.Persist.sv_live path;
    result

let checkpoint_every_arg =
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Checkpoint campaign progress every $(docv) equivalence classes to               a progress log next to the store ($(b,--store) required); a killed run               restarted with $(b,--resume) replays only the unfinished classes.               0 (the default) disables checkpointing.")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Resume from the checkpoint progress log left by a killed run               (requires $(b,--checkpoint-every)). Results are bit-identical to               an uninterrupted run.")

(* The progress log outlives the process on a crash by design; it is
   removed only after [k] returns, i.e. after the store save inside it
   succeeded. Progress chatter goes to stderr so resumed stdout diffs
   clean against an uninterrupted run. *)
let with_checkpoint ~store_path ~every ~resume k =
  if every < 0 then begin
    Printf.eprintf "fastflip: --checkpoint-every must be >= 0\n";
    exit 1
  end;
  if every = 0 then begin
    if resume then begin
      Printf.eprintf "fastflip: --resume requires --checkpoint-every\n";
      exit 1
    end;
    k None
  end
  else
    match store_path with
    | None ->
      Printf.eprintf "fastflip: --checkpoint-every requires --store\n";
      exit 1
    | Some path -> (
      let lpath = Fastflip.Persist.progress_path path in
      match Fastflip.Persist.open_progress ~path ~every ~resume with
      | Error e ->
        Printf.eprintf "fastflip: cannot open progress log %s: %s\n" lpath e;
        exit 1
      | Ok (progress, loaded, skipped) ->
        if resume then
          Printf.eprintf "resuming: %d class outcome(s) restored from %s%s\n%!" loaded lpath
            (match skipped with
            | 0 -> ""
            | n -> Printf.sprintf " (%d corrupt region(s) skipped)" n);
        let result = k (Some (fun key -> Fastflip.Persist.progress_journal progress ~key)) in
        Fastflip.Persist.remove_progress progress;
        result)

(* --- compile -------------------------------------------------------------- *)

let compile_cmd =
  let run path =
    let program = compile_file path in
    Format.printf "%a@." Ff_ir.Program.pp program
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a program and print its MiniVM IR.")
    Term.(const run $ file_arg)

(* --- run ------------------------------------------------------------------- *)

let run_cmd =
  let run path =
    let program = compile_file path in
    let golden = Ff_vm.Golden.run program in
    Printf.printf "sections: %d, dynamic instructions: %d\n"
      (Array.length golden.Ff_vm.Golden.sections)
      golden.Ff_vm.Golden.total_dyn;
    let show = function
      | Ff_ir.Value.Int v -> Int64.to_string v
      | Ff_ir.Value.Float v -> Printf.sprintf "%.10g" v
    in
    List.iter
      (fun (_, name, values) ->
        Printf.printf "%s = [%s]\n" name
          (String.concat "; " (Array.to_list (Array.map show values))))
      (Ff_vm.Golden.outputs golden)
  in
  Cmd.v (Cmd.info "run" ~doc:"Golden-run a program and print its outputs.")
    Term.(const run $ file_arg)

(* --- analyze ---------------------------------------------------------------- *)

let analyze_cmd =
  let run path target bits samples safety_factor epsilon store_path strict jobs metrics
      every resume no_prove model =
    let config = config_of ~epsilon ~model ?safety_factor ~bits ~samples ~no_prove () in
    let analysis =
      with_metrics metrics (fun () ->
          let program = compile_file path in
          with_jobs jobs (fun pool ->
              with_checkpoint ~store_path ~every ~resume (fun journal ->
                  with_store ~strict store_path (fun store ->
                      Pipeline.analyze ~store ~pool ?journal config program))))
    in
    print_string (Ff_serve.Report.analysis ~target analysis)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the full FastFlip analysis on a program and print the selection.")
    Term.(const run $ file_arg $ target_arg $ bits_arg $ samples_arg $ safety_factor_arg $ epsilon_arg $ store_arg $ strict_store_arg $ jobs_arg $ metrics_arg $ checkpoint_every_arg $ resume_arg $ no_prove_arg $ fault_model_arg)

(* --- compare ----------------------------------------------------------------- *)

let compare_cmd =
  let run path target bits samples epsilon jobs metrics no_prove model =
    let config = config_of ~epsilon ~model ~bits ~samples ~no_prove () in
    let ff, base =
      with_metrics metrics (fun () ->
          let program = compile_file path in
          with_jobs jobs (fun pool ->
              let ff = Pipeline.analyze ~pool config program in
              let base =
                Fastflip.Baseline.analyze ~pool config.Pipeline.campaign ~epsilon
                  ff.Pipeline.golden
              in
              (ff, base)))
    in
    let row =
      Fastflip.Compare.row ~ff ~base ~inaccuracy:0.04 ~target ~used_target:target
    in
    Printf.printf "FastFlip work:  %d simulated instructions\n" ff.Pipeline.work;
    Printf.printf "Baseline work:  %d simulated instructions\n" base.Fastflip.Baseline.work;
    Printf.printf "achieved value: %.4f (target %.2f, error range +-%.4f)%s\n"
      row.Fastflip.Compare.achieved target row.Fastflip.Compare.error_range
      (if row.Fastflip.Compare.acceptable then "" else "  [BELOW RANGE]");
    Printf.printf "FastFlip cost:  %.4f of the trace\n" row.Fastflip.Compare.ff_cost;
    Printf.printf "Baseline cost:  %.4f of the trace (excess %+.4f)\n"
      row.Fastflip.Compare.base_cost row.Fastflip.Compare.cost_diff
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare FastFlip's selection against the monolithic baseline.")
    Term.(const run $ file_arg $ target_arg $ bits_arg $ samples_arg $ epsilon_arg $ jobs_arg $ metrics_arg $ no_prove_arg $ fault_model_arg)

(* --- bench -------------------------------------------------------------------- *)

let bench_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"Benchmark name (see 'fastflip list').")
  in
  let run name bits samples jobs metrics no_prove model =
    match Ff_benchmarks.Registry.find name with
    | None ->
      Printf.eprintf "unknown benchmark %s; try: %s\n" name
        (String.concat ", " Ff_benchmarks.Registry.names);
      exit 1
    | Some bench ->
      let config = config_of ~model ~bits ~samples ~no_prove () in
      let run =
        with_metrics metrics (fun () ->
            with_jobs jobs (fun pool ->
                Ff_harness.Experiments.run_benchmark ~config ~pool bench))
      in
      let t =
        Table.create
          ~title:(Printf.sprintf "%s: FastFlip vs baseline analysis work" bench.Ff_benchmarks.Defs.name)
          [
            ("Version", Table.Left); ("Modification", Table.Left);
            ("FastFlip work", Table.Right); ("Baseline work", Table.Right);
            ("Speedup", Table.Right);
          ]
      in
      List.iter
        (fun r ->
          Table.add_row t
            [
              Ff_benchmarks.Defs.version_name r.Ff_harness.Experiments.version;
              bench.Ff_benchmarks.Defs.modification_desc r.Ff_harness.Experiments.version;
              string_of_int r.Ff_harness.Experiments.ff_work;
              string_of_int r.Ff_harness.Experiments.base_work;
              Printf.sprintf "%.1fx" (Ff_harness.Experiments.speedup r);
            ])
        run.Ff_harness.Experiments.results;
      Table.print t
  in
  Cmd.v (Cmd.info "bench" ~doc:"Analyze a built-in benchmark across its three versions.")
    Term.(const run $ name_arg $ bits_arg $ samples_arg $ jobs_arg $ metrics_arg $ no_prove_arg $ fault_model_arg)

(* --- serve / query / shutdown -------------------------------------------------- *)

let socket_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET"
         ~doc:"Unix domain socket path the daemon listens on.")

let save_every_arg =
  Arg.(value & opt float 0.0 & info [ "save-every" ] ~docv:"SECONDS"
         ~doc:"Checkpoint the store to disk every $(docv) seconds while serving               (requires $(b,--store)). Each checkpoint appends only the records               published since the last save, so a killed daemon loses at most               one interval of results. 0 (the default) saves only on exit.")

let serve_cmd =
  let run socket store_path strict save_every jobs metrics =
    let save_every = if save_every > 0.0 then Some save_every else None in
    with_metrics metrics (fun () ->
        with_jobs jobs (fun pool ->
            try
              Ff_serve.Server.run ~socket ?store_path ~strict_store:strict ?save_every
                ~pool ()
            with Failure msg ->
              Printf.eprintf "fastflip: %s\n" msg;
              exit 1))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the analysis-as-a-service daemon: accept analyze requests from               many concurrent clients over the Unix-domain socket $(i,SOCKET), keeping decoded kernels,               golden traces, workspace plans, and the store hot across requests.               Responses are byte-identical to the one-shot $(b,analyze) command.               Stop with SIGTERM/SIGINT or the $(b,shutdown) subcommand.")
    Term.(const run $ socket_arg $ store_arg $ strict_store_arg $ save_every_arg $ jobs_arg $ metrics_arg)

let query_cmd =
  let file_pos1_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE"
           ~doc:"Kernel-language source file.")
  in
  let run socket path target bits samples epsilon no_prove model =
    check_options ~bits ~samples ~epsilon;
    let source = read_file path in
    let query =
      {
        Protocol.q_target = target;
        q_bits = bits;
        q_samples = samples;
        q_epsilon = epsilon;
        q_prove = not no_prove;
        q_model = model;
      }
    in
    match Ff_serve.Client.request ~socket (Protocol.Analyze { source; query }) with
    | Ok (Protocol.Report text) -> print_string text
    | Ok (Protocol.Error msg) ->
      Printf.eprintf "fastflip: %s: %s\n" path msg;
      exit 1
    | Ok _ ->
      Printf.eprintf "fastflip: unexpected response from %s\n" socket;
      exit 1
    | Error msg ->
      Printf.eprintf "fastflip: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Analyze a program via a running $(b,serve) daemon and print the               report — byte-identical to running $(b,analyze) directly, but warm               daemon state (cached analyses, decoded kernels, store records)               answers repeat queries in milliseconds.")
    Term.(const run $ socket_arg $ file_pos1_arg $ target_arg $ bits_arg $ samples_arg $ epsilon_arg $ no_prove_arg $ fault_model_arg)

let shutdown_cmd =
  let run socket =
    match Ff_serve.Client.request ~socket Protocol.Shutdown with
    | Ok Protocol.Bye -> print_endline "daemon acknowledged shutdown"
    | Ok _ ->
      Printf.eprintf "fastflip: unexpected response from %s\n" socket;
      exit 1
    | Error msg ->
      Printf.eprintf "fastflip: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Stop a running $(b,serve) daemon cleanly (it saves               its store and removes the socket before exiting).")
    Term.(const run $ socket_arg)

(* --- store stat / compact ------------------------------------------------------- *)

let store_pos_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH"
         ~doc:"Persistent analysis store path (as passed to --store).")

let store_stat_cmd =
  let run path =
    let open Fastflip.Persist in
    match stat ~path with
    | Error e ->
      Printf.eprintf "fastflip: %s: %s\n" path e;
      exit 1
    | Ok info ->
      Printf.printf "format:     FFSTORE4\n";
      Printf.printf "shards:     %d\n" info.st_shards;
      Printf.printf "generation: %Ld\n" info.st_generation;
      Printf.printf "records:    %d live, %d dead frame(s)\n" info.st_live info.st_dead;
      Printf.printf "bytes:      %d\n" info.st_bytes;
      if info.st_skipped > 0 then
        Printf.printf "skipped:    %d corrupt record(s)/region(s)\n" info.st_skipped;
      let t =
        Table.create ~title:"shard logs"
          [
            ("Shard", Table.Left); ("Frames", Table.Right); ("Live", Table.Right);
            ("Bytes", Table.Right); ("Skipped", Table.Right);
          ]
      in
      List.iter
        (fun s ->
          Table.add_row t
            [
              Printf.sprintf "s%02d" s.sh_index; string_of_int s.sh_frames;
              string_of_int s.sh_live; string_of_int s.sh_bytes;
              string_of_int s.sh_skipped;
            ])
        info.st_per_shard;
      Table.print t
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:"Inspect a store without locking it: format, shard layout, generation,               live vs dead (superseded) records, and any corruption found.")
    Term.(const run $ store_pos_arg)

let store_compact_cmd =
  let shards_arg =
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N"
           ~doc:"Reshard to $(docv) shards (1 to 64; default: keep the current width).               A fresh store is created 16 shards wide; this is the one way to               choose another width.")
  in
  let run path shards =
    let open Fastflip.Persist in
    match compact ?shards ~path () with
    | Error e ->
      Printf.eprintf "fastflip: %s: %s\n" path e;
      exit 1
    | Ok c ->
      Printf.printf "compacted %s: %d live record(s), %d dead frame(s) dropped, %d shard(s), generation %Ld\n"
        path c.cp_live c.cp_dropped c.cp_shards c.cp_generation
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Rewrite a store down to its live records under the shard locks.               $(b,--shards) reshards to a new layout width. Only FFSTORE4               stores are accepted; a legacy FFSTORE1/FFSTORE2/FFSTORE3 file is               refused (re-run the analysis to rebuild it).")
    Term.(const run $ store_pos_arg $ shards_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and maintain a persistent analysis store.")
    [ store_stat_cmd; store_compact_cmd ]

(* --- security -------------------------------------------------------------------- *)

let security_cmd =
  let target_pos_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM"
           ~doc:"Kernel-language source file, or the name of a built-in benchmark                 (see 'fastflip list'; benchmarks analyze their large — modified —                 version, e.g. SHA2's lookup-table compression with its $(b,hit)                 comparison guard).")
  in
  let security_model_arg =
    Arg.(value & opt fault_model_conv Ff_inject.Fault_model.Skip
           & info [ "fault-model" ] ~docv:"NAME[:PARAMS]"
               ~doc:"Attacker primitive to campaign with (default $(b,skip):                     glitching one dynamic instruction). Any fault model is                     accepted; $(b,opcode) and $(b,memflip) model encoding and                     memory attacks.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the findings as deterministic JSON to $(docv):                 per-finding pc (kernel/instr), attack-outcome kind, silent-damage                 site counts, and the campaign totals. The export seeds                 $(b,fastflip protect --seed-security).")
  in
  let run name target bits samples epsilon jobs metrics no_prove model json =
    let config = config_of ~epsilon ~model ~bits ~samples ~no_prove () in
    let result =
      with_metrics metrics (fun () ->
          let program = compile_program name in
          with_jobs jobs (fun pool ->
              let golden = Ff_vm.Golden.run program in
              Fastflip.Security.analyze ~pool ~epsilon golden
                config.Pipeline.campaign))
    in
    print_string (Fastflip.Security.report ~target result);
    match json with
    | None -> ()
    | Some path ->
      let oc = open_out_bin path in
      output_string oc (Fastflip.Security.findings_json result);
      close_out oc;
      Printf.printf "wrote findings to %s\n" path
  in
  Cmd.v
    (Cmd.info "security"
       ~doc:"Attack-surface campaign: inject an attacker-style fault model               (instruction skip by default) end to end, report which sites let a               fault bypass a comparison or silently corrupt state, and what the               knapsack would protect first under that threat model.")
    Term.(const run $ target_pos_arg $ target_arg $ bits_arg $ samples_arg $ epsilon_arg $ jobs_arg $ metrics_arg $ no_prove_arg $ security_model_arg $ json_arg)

(* --- protect --------------------------------------------------------------------- *)

let protect_cmd =
  let target_pos_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM"
           ~doc:"Kernel-language source file, or the name of a built-in benchmark                 (analyzed at its large version, see 'fastflip list').")
  in
  let detectors_arg =
    Arg.(value & flag & info [ "detectors" ]
           ~doc:"Synthesize runtime detectors, measure their coverage by                 re-injecting every SDC-Bad equivalence class, and let the mixed                 knapsack trade them against instruction duplication. Without this                 flag the command reports the pure-duplication selection in the                 same format.")
  in
  let pareto_arg =
    Arg.(value & opt (some string) None & info [ "pareto" ] ~docv:"FILE"
           ~doc:"Write the full protection-value vs cost Pareto front (mixed and                 pure-duplication, plus the candidate detectors and both selections                 at the target) as deterministic JSON to $(docv).")
  in
  let seed_security_arg =
    Arg.(value & opt (some file) None & info [ "seed-security" ] ~docv:"FILE"
           ~doc:"Restrict detector synthesis to sections whose kernel contains a                 finding from a $(b,fastflip security --json) export — detector                 placement seeded by the attack-surface campaign.")
  in
  let max_detectors_arg =
    Arg.(value & opt int 8 & info [ "max-detectors" ] ~docv:"N"
           ~doc:"Global candidate-detector pool size (the mixed optimizer                 enumerates its subsets; hard limit 16).")
  in
  let run name target bits samples safety_factor epsilon store_path strict jobs metrics
      no_prove model detectors pareto seed_security max_detectors =
    let config = config_of ~epsilon ~model ?safety_factor ~bits ~samples ~no_prove () in
    let focus =
      Option.map
        (fun path ->
          match Ff_detect.Synthesize.focus_of_json (read_file path) with
          | Ok focus -> focus
          | Error e | (exception Sys_error e) ->
            Printf.eprintf "fastflip: --seed-security %s: %s\n" path e;
            exit Cmd.Exit.cli_error)
        seed_security
    in
    let result =
      with_metrics metrics (fun () ->
          let program = compile_program name in
          with_jobs jobs (fun pool ->
              with_store ~strict store_path (fun store ->
                  let analysis = Pipeline.analyze ~store ~pool config program in
                  let backing = Pipeline.backing_of_store store in
                  Ff_detect.Protect.run ~pool ~backing ~detectors_enabled:detectors
                    ~max_detectors ?focus config analysis ~target)))
    in
    print_string (Ff_detect.Protect.report result);
    match pareto with
    | None -> ()
    | Some path ->
      let oc = open_out_bin path in
      output_string oc (Ff_detect.Protect.pareto_json result);
      close_out oc;
      Printf.printf "wrote pareto front to %s\n" path
  in
  Cmd.v
    (Cmd.info "protect"
       ~doc:"Protection planning with learned runtime detectors: synthesize               range/finiteness/linear-invariant checks on section outputs from the               golden trace and benign perturbed runs, measure which SDC-Bad               equivalence classes each check actually catches by re-injecting their               pilots, and report the Pareto front where shared detectors compete               with per-instruction duplication. Deterministic for any $(b,--jobs)               width; coverage replays are cached in $(b,--store).")
    Term.(const run $ target_pos_arg $ target_arg $ bits_arg $ samples_arg $ safety_factor_arg $ epsilon_arg $ store_arg $ strict_store_arg $ jobs_arg $ metrics_arg $ no_prove_arg $ fault_model_arg $ detectors_arg $ pareto_arg $ seed_security_arg $ max_detectors_arg)

(* --- list ---------------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun b ->
        Printf.printf "%-9s %-10s %s\n" b.Ff_benchmarks.Defs.name
          b.Ff_benchmarks.Defs.input_desc b.Ff_benchmarks.Defs.sections_desc)
      Ff_benchmarks.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in paper benchmarks.") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "fastflip" ~version:"1.0.0"
      ~doc:"Compositional SDC resiliency analysis (FastFlip, CGO 2025 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd; run_cmd; analyze_cmd; compare_cmd; bench_cmd; list_cmd;
            security_cmd; protect_cmd; serve_cmd; query_cmd; shutdown_cmd; store_cmd;
          ]))
