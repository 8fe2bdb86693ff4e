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
module Json = Ff_support.Json
module Table = Ff_support.Table
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

(* --- measured results: one field list each ------------------------------- *)

(* A measured artifact returns a title and its result, said once as named
   fields: [report] prints them as text tables, [write_json] writes them to
   BENCH_<artifact>.json, and every row of [floors] reads its value by key. *)
type value =
  | Int of int
  | Float of float * int  (** the value and the decimal places it prints with *)
  | Bool of bool
  | Str of string
  | Obj of field list
  | Rows of field list list

and field = string * value

let scalar = function
  | Int i -> string_of_int i
  | Float (x, places) -> Printf.sprintf "%.*f" places x
  | Bool b -> string_of_bool b
  | Str s -> s
  | Obj _ | Rows _ -> ""

let number = function
  | Int i -> Some (float_of_int i)
  | Float (x, _) -> Some x
  | Bool _ | Str _ | Obj _ | Rows _ -> None

(* The number under [key] in a row the artifact itself built. *)
let num key row = Option.get (number (List.assoc key row))

let all_identical rows =
  Bool (List.for_all (fun row -> List.assoc "identical" row = Bool true) rows)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* A nested field as the rows of a table: a list's objects, or an object's
   members under a first column named after the field. *)
let rows_of key = function
  | Rows rows -> Some rows
  | Obj members ->
    Some
      (List.map
         (fun (name, v) ->
           (key, Str name) :: (match v with Obj inner -> inner | v -> [ ("value", v) ]))
         members)
  | Int _ | Float _ | Bool _ | Str _ -> None

(* One table per nested field, then one of the scalar fields; the first
   carries the title. Headers are the JSON keys, cells the JSON's numbers. *)
let report title fields =
  let title = ref (Some title) in
  let print = function
    | [] -> ()
    | first :: _ as rows ->
      let align i = if i = 0 then Table.Left else Table.Right in
      let t =
        Table.create ?title:!title (List.mapi (fun i (key, _) -> (key, align i)) first)
      in
      title := None;
      List.iter (fun row -> Table.add_row t (List.map (fun (_, v) -> scalar v) row)) rows;
      Table.print t
  in
  List.iter (fun (key, v) -> Option.iter print (rows_of key v)) fields;
  print
    (List.filter_map
       (fun (key, v) ->
         match rows_of key v with
         | Some _ -> None
         | None -> Some [ ("key", Str key); ("value", v) ])
       fields)

(* The members of the top two levels go one per line; deeper objects print
   inline, as [{ "key": value, ... }]. *)
let rec add_json buf depth v =
  let block opening closing items add_item =
    if depth < 2 then begin
      let pad = String.make (2 * depth) ' ' in
      Buffer.add_char buf opening;
      List.iteri
        (fun i item ->
          Buffer.add_string buf (if i = 0 then "\n  " else ",\n  ");
          Buffer.add_string buf pad;
          add_item item)
        items;
      Printf.bprintf buf "\n%s%c" pad closing
    end
    else begin
      Printf.bprintf buf "%c " opening;
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          add_item item)
        items;
      Printf.bprintf buf " %c" closing
    end
  in
  match v with
  | Str s -> Json.add_string buf s
  | Obj fields ->
    block '{' '}' fields (fun (key, v) ->
        Json.add_string buf key;
        Buffer.add_string buf ": ";
        add_json buf (depth + 1) v)
  | Rows rows -> block '[' ']' rows (fun row -> add_json buf (depth + 1) (Obj row))
  | Int _ | Float _ | Bool _ -> Buffer.add_string buf (scalar v)

let write_json name fields =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let buf = Buffer.create 1024 in
  add_json buf 0 (Obj fields);
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --- serial vs parallel wall-clock -------------------------------------- *)

(* NaNs can appear inside outcome SDC magnitudes, so structural equality
   goes through [compare] (which equates them) rather than [=]. *)
let same a b = Stdlib.compare a b = 0

let measure_parallel config =
  let p = Lazy.force pool in
  let bench = Option.get (Registry.find "LUD") in
  let program = Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_none) in
  let golden = Ff_vm.Golden.run program in
  let campaign_config = config.Pipeline.campaign in
  let phase name serial parallel check =
    let s, serial_s = wall serial in
    let q, parallel_s = wall parallel in
    [
      ("phase", Str name);
      ("serial_s", Float (serial_s, 6));
      ("parallel_s", Float (parallel_s, 6));
      ("speedup", Float (ratio serial_s parallel_s, 3));
      ("identical", Bool (check s q));
    ]
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
  ( Printf.sprintf "LUD (V_none): serial vs %d-domain wall-clock" (Pool.domains p),
    [
      ("jobs", Int (Pool.domains p));
      (* The "quick" argument is what selects [quick_config]. *)
      ("quick", Bool (config == quick_config));
      ("phases", Rows [ campaign; baseline; analysis ]);
    ] )

(* --- boxed vs unboxed execution engine ---------------------------------- *)

let measure_vm config =
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
  let engine results seconds =
    let total f = float_of_int (Array.fold_left (fun acc r -> acc + f r) 0 results) in
    Obj
      [
        ("seconds", Float (seconds, 6));
        ("instr_per_sec", Float (ratio (total (fun r -> r.Campaign.s_work)) seconds, 1));
        ( "replays_per_sec",
          Float (ratio (total (fun r -> r.Campaign.s_injections)) seconds, 1) );
      ]
  in
  ( "LUD (V_none): boxed vs unboxed engine, full campaign",
    [
      ( "engines",
        Obj
          [
            ("boxed", engine !boxed_results !best_boxed);
            ("unboxed", engine !unboxed_results !best_unboxed);
          ] );
      ("campaign_speedup", Float (ratio !best_boxed !best_unboxed, 3));
      ("identical", Bool (same !boxed_results !unboxed_results));
    ] )

(* --- static outcome prover: prune ratio and end-to-end speedup ---------- *)

let measure_prune config =
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
        let proved = !masked + !crash + !benign in
        [
          ("name", Str bench.Defs.name);
          ("classes", Int nclasses);
          ("proved", Int proved);
          ("residual", Int (nclasses - proved));
          ("masked", Int !masked);
          ("crash", Int !crash);
          ("benign", Int !benign);
          ("prune_ratio", Float (ratio (float_of_int proved) (float_of_int nclasses), 4));
          ("injections_avoided", Int proved);
          ("prove_on_s", Float (!best_on, 6));
          ("prove_off_s", Float (!best_off, 6));
          ("speedup", Float (ratio !best_off !best_on, 3));
          ("identical", Bool identical);
        ])
      Registry.all
  in
  let sum key = List.fold_left (fun acc row -> acc +. num key row) 0.0 rows in
  let best = List.fold_left (fun acc row -> Float.max acc (num "prune_ratio" row)) 0.0 rows in
  ( "Static outcome prover: classes proved without replay (V_none, serial)",
    [
      ("benchmarks", Rows rows);
      ("best_prune_ratio", Float (best, 4));
      (* Summed prover-off time over summed prover-on time. *)
      ("aggregate_speedup", Float (ratio (sum "prove_off_s") (sum "prove_on_s"), 3));
    ] )

(* --- fault models: per-model campaign throughput and prune ratio --------- *)

let measure_faults config =
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
        [
          ("model", Str (Ff_inject.Fault_model.to_string model));
          ("classes", Int nclasses);
          ("sites", Int nsites);
          ("proved", Int !proved);
          ( "prune_ratio",
            Float (ratio (float_of_int !proved) (float_of_int nclasses), 4) );
          ("serial_s", Float (!best, 6));
          ("throughput_sites_s", Float (ratio (float_of_int nsites) !best, 1));
          ("identical", Bool identical);
        ])
      Ff_inject.Fault_model.builtin
  in
  (* The best prune ratio among the register models ([bitflip],
     [bitflip:N]); the prover abstains on every other model. *)
  let bitflip_prune =
    List.fold_left
      (fun acc row ->
        match List.assoc "model" row with
        | Str m when String.starts_with ~prefix:"bitflip" m ->
          Float.max acc (num "prune_ratio" row)
        | _ -> acc)
      0.0 rows
  in
  ( "Fault models: LUD (V_none) campaign per model (serial, prover on)",
    [
      ("models", Rows rows);
      ("identical", all_identical rows);
      ("bitflip_prune_ratio", Float (bitflip_prune, 4));
    ] )

(* --- detect: duplication-vs-detector protection economics ---------------- *)

let measure_detect config =
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
        let pure = serial.Protect.r_pure and mixed = serial.Protect.r_mixed in
        [
          ("bench", Str name);
          ("total_value", Int total);
          ("target_value", Int (Fastflip.Knapsack.integer_target ~total target));
          ("pure_value", Int pure.Fastflip.Knapsack.value);
          ("pure_cost", Int pure.Fastflip.Knapsack.cost);
          ("mixed_value", Int mixed.Select.sel_value);
          ("mixed_cost", Int mixed.Select.sel_cost);
          ("detectors", Int (Array.length mixed.Select.sel_detectors));
          ( "candidates",
            Int
              (Array.fold_left
                 (fun acc a -> acc + Array.length a)
                 0 synth.Synthesize.candidates) );
          ("dropped", Int synth.Synthesize.dropped);
          ("fp", Int synth.Synthesize.fp_fires);
          ( "coverage_replays",
            Int
              (List.fold_left
                 (fun a c -> a + c.Coverage.c_replays)
                 0 serial.Protect.r_coverages) );
          ("work", Int serial.Protect.r_work);
          ( "saving",
            Float
              ( (if pure.Fastflip.Knapsack.cost > 0 then
                   1.0
                   -. float_of_int mixed.Select.sel_cost
                      /. float_of_int pure.Fastflip.Knapsack.cost
                 else 0.0),
                4 ) );
          ("identical", Bool identical);
          ("serial_s", Float (serial_s, 6));
        ])
      [ "Campipe"; "BScholes" ]
  in
  ( "Detectors vs duplication at the 0.9 protection target (V_large)",
    [
      ("benches", Rows rows);
      ("identical", all_identical rows);
      ( "fp_fires",
        Int (List.fold_left (fun acc row -> acc + truncate (num "fp" row)) 0 rows) );
      (* On some benchmark the mixed plan reaches the target strictly
         cheaper than pure duplication. *)
      ( "detector_win",
        Bool
          (List.exists
             (fun row ->
               num "mixed_value" row >= num "target_value" row
               && num "mixed_cost" row < num "pure_cost" row)
             rows) );
    ] )

(* --- analysis service: cold vs warm latency, concurrent throughput ------ *)

let measure_server config =
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
  let cold_ms = cold_s *. 1e3 and p50_ms = p50 *. 1e3 in
  ( Printf.sprintf "fastflip serve: LUD (V_none) over a Unix socket, %d clients" clients,
    [
      ("cold_ms", Float (cold_ms, 3));
      ("warm_p50_ms", Float (p50_ms, 3));
      ("warm_p95_ms", Float (p95 *. 1e3, 3));
      ("warm_speedup", Float (ratio cold_ms p50_ms, 1));
      ("clients", Int clients);
      ("requests", Int (1 + repeats + (clients * per_client)));
      ("throughput_rps", Float (ratio (float_of_int (clients * per_client)) burst_s, 1));
      ("identical", Bool (Atomic.get identical));
    ] )

(* --- sharded store: O(dirty) saves, parallel writers --------------------- *)

let measure_store config =
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
  ( Printf.sprintf "sharded store: %d records, %d dirty, 2 writers x %d saves of %d" n dirty
      saves batch,
    [
      ("records", Int n);
      ("dirty", Int dirty);
      ("incremental_save_s", Float (!best_incremental, 6));
      ("full_rewrite_s", Float (!best_full, 6));
      ("odirty_speedup", Float (ratio !best_full !best_incremental, 3));
      ("writers", Int 2);
      ("cores", Int (Domain.recommended_domain_count ()));
      ("writer_saves", Int saves);
      ("writer_batch", Int batch);
      ("serial_s", Float (!best_serial, 6));
      ("parallel_s", Float (!best_parallel, 6));
      ("writer_scaling", Float (ratio !best_serial !best_parallel, 3));
      ("saves_expected", Int (Atomic.get saves_expected));
      ("saves_counted", Int saves_counted);
      ("identical", Bool identical);
    ] )

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
   row here. [key] names the field of the artifact's result the row reads:
   a summary field, or else that field in every row of the result's
   tables. [main] checks the rows of the artifacts that ran only after
   each has written its BENCH_*.json, so a failing artifact is still on
   disk (and uploaded by CI) when the run exits 1. The [metrics] rows read
   the telemetry counters when --metrics exports the registry. *)

type op = Ge | Gt | Le

(* A floor may scale with another field of the same result, read by key. *)
type bound = (string -> float) -> float

type check =
  | Holds  (** every value is true *)
  | Worst of op * bound  (** the worst value passes *)
  | Best of op * bound  (** the best value passes *)

type floor = { artifact : string; key : string; label : string; check : check }

let passes v op floor =
  match op with Ge -> v >= floor | Gt -> v > floor | Le -> v <= floor

(* A baseline that is not positive is no measurement: a floor scaled from
   it becomes unreachable. *)
let positive x = if x > 0.0 then x else infinity

let floors =
  let row artifact key label check = { artifact; key; label; check } in
  let at_least ?(op = Ge) floor = Worst (op, fun _ -> floor) in
  [
    row "parallel" "identical" "a parallel phase diverged from the serial run" Holds;
    row "parallel" "speedup" "parallel never beats serial in any phase"
      (Best (Gt, fun _ -> 1.0));
    row "vm" "identical" "unboxed engine diverged from the boxed oracle" Holds;
    row "vm" "campaign_speedup" "unboxed engine regression" (at_least 1.5);
    row "prune" "identical" "prover-pruned campaign diverged from full replay" Holds;
    row "prune" "aggregate_speedup" "prover makes campaigns slower" (at_least 1.0);
    row "faults" "identical"
      "a fault-model campaign diverged between serial and pooled runs" Holds;
    row "faults" "bitflip_prune_ratio" "bitflip prover stopped pruning" (at_least 0.2);
    (* Orders of magnitude below observed throughput: rejects only a
       pathologically slow (or zero) model. *)
    row "faults" "throughput_sites_s" "the slowest fault model replays too slowly"
      (at_least 1000.0);
    row "detect" "identical" "a protect run diverged between serial and pooled execution"
      Holds;
    (* Synthesis validation drops every candidate that fires on a benign run. *)
    row "detect" "fp_fires" "detectors fire on benign runs" (at_least ~op:Le 0.0);
    row "detect" "detector_win"
      "detectors never beat pure duplication at the target on any benchmark" Holds;
    row "server" "identical" "daemon responses diverged from the one-shot CLI" Holds;
    (* On the raw latencies: the one-decimal warm_speedup in the JSON
       would round a 9.96x run up to 10.0. *)
    row "server" "cold_ms" "warm p50 is not 10x below the cold request"
      (Worst (Ge, fun field -> 10.0 *. positive (field "warm_p50_ms")));
    row "server" "throughput_rps" "no concurrent throughput recorded"
      (at_least ~op:Gt 0.0);
    row "store" "identical" "sharded store did not read back bit-identically" Holds;
    row "store" "odirty_speedup" "incremental save is not O(dirty)" (at_least 5.0);
    row "store" "saves_counted" "persist.saves telemetry undercounted the saves performed"
      (Worst (Ge, fun field -> positive (field "saves_expected")));
    (* Two writers on disjoint shards can only beat one-at-a-time with a
       second core; on one core the floor rejects only pathological lock
       serialization. *)
    row "store" "writer_scaling" "disjoint-shard writers do not scale"
      (Worst (Gt, fun field -> if field "cores" >= 2.0 then 1.0 else 0.5));
    row "metrics" "campaign.injections" "telemetry export has no campaign counters"
      (at_least ~op:Gt 0.0);
    row "metrics" "prover.classes_proved" "telemetry export has no prover counters"
      (at_least ~op:Gt 0.0);
  ]

exception Unreadable of string

(* Every value [key] names in a result: the summary field, else the field
   in each row of the result's tables. None at all is a violation. *)
let values fields key =
  let found =
    match List.assoc_opt key fields with
    | Some v -> [ v ]
    | None ->
      List.concat_map
        (fun (k, v) ->
          Option.fold ~none:[] ~some:(List.filter_map (List.assoc_opt key)) (rows_of k v))
        fields
  in
  if found = [] then raise (Unreadable (key ^ " is missing")) else found

let numbers fields key =
  List.map
    (fun v ->
      match number v with
      | Some x -> x
      | None -> raise (Unreadable (key ^ " is not a number")))
    (values fields key)

(* The line a row of [floors] fails with on [fields], if it fails. *)
let violation fields f =
  let verdict =
    try
      match f.check with
      | Holds ->
        let ok =
          List.for_all
            (function Bool b -> b | _ -> raise (Unreadable (f.key ^ " is not a boolean")))
            (values fields f.key)
        in
        if ok then None else Some (f.key ^ " is false, floor is = true")
      | Worst (op, bound) | Best (op, bound) ->
        let best = match f.check with Best _ -> true | Holds | Worst _ -> false in
        let pick = if (op <> Le) = best then Float.max else Float.min in
        let vs = numbers fields f.key in
        let v = List.fold_left pick (List.hd vs) vs in
        let floor = bound (fun key -> List.hd (numbers fields key)) in
        if passes v op floor then None
        else
          let op = match op with Ge -> ">=" | Gt -> ">" | Le -> "<=" in
          Some (Printf.sprintf "%s is %g, floor is %s %g" f.key v op floor)
    with Unreadable what -> Some what
  in
  Option.map (Printf.sprintf "bench gate: %s: %s: %s" f.artifact f.label) verdict

type artifact =
  | Paper of (Pipeline.config -> unit)  (** a deterministic table of the paper *)
  | Measured of (Pipeline.config -> string * field list)

let artifacts =
  [
    ("table1", Paper print_table1);
    ("table2", Paper print_table2);
    ("table3", Paper print_table3);
    ("table4", Paper print_table4);
    ("table5", Paper print_table5);
    ("figure1", Paper print_figure1);
    ("ablations", Paper print_ablations);
    ("evolution", Paper print_evolution);
    ("parallel", Measured measure_parallel);
    ("vm", Measured measure_vm);
    ("prune", Measured measure_prune);
    ("faults", Measured measure_faults);
    ("detect", Measured measure_detect);
    ("server", Measured measure_server);
    ("store", Measured measure_store);
  ]

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
  | Some path -> (
    match Fastflip.Persist.open_store ~strict:false ~path with
    | Error refusal -> failwith refusal
    | Ok (loaded, warning) ->
      Option.iter (Printf.eprintf "%s\n%!") warning;
      shared_store :=
        Some
          (match loaded with
          | Some st ->
            Printf.printf "store: loaded %d record(s) from %s\n%!"
              (Fastflip.Store.size st) path;
            st
          | None -> Fastflip.Store.create ()))
  | None -> ());
  let quick = List.mem "quick" names in
  let config = if quick then quick_config else Pipeline.default_config in
  let timings = ref [] and results = ref [] in
  let run name =
    let (), s =
      wall (fun () ->
          match List.assoc name artifacts with
          | Paper print -> print config
          | Measured measure ->
            let title, fields = measure config in
            report title fields;
            results := (name, fields) :: !results)
    in
    timings := (name, s) :: !timings
  in
  (match List.filter (fun a -> not (String.equal a "quick")) names with
  | [] ->
    Printf.printf
      "FastFlip reproduction: regenerating all evaluation artifacts%s.\n\n%!"
      (if quick then " (quick mode: 4-bit subset)" else "");
    List.iter (fun (name, _) -> run name) artifacts;
    micro ()
  | requested ->
    List.iter
      (fun name -> if String.equal name "micro" then micro () else run name)
      requested);
  (* BENCH_parallel.json also holds the time of every artifact this run
     ran. Each BENCH_*.json is written only when its artifact ran, so a
     single-artifact invocation (e.g. `quick server`) never clobbers the
     others. *)
  let tables = Obj (List.rev_map (fun (name, s) -> (name, Float (s, 6))) !timings) in
  let results =
    List.rev_map
      (fun (name, fields) ->
        let fields = if String.equal name "parallel" then fields @ [ ("tables", tables) ] else fields in
        (name, fields))
      !results
  in
  List.iter (fun (name, fields) -> write_json name fields) results;
  (* The shared store's save-on-exit runs before the metrics export, so
     a --store run's persist.saves counter lands in the JSON. *)
  (match (store_path, !shared_store) with
  | Some path, Some st ->
    let stats = Fastflip.Persist.save st ~path in
    Printf.printf "store: saved %d record(s) to %s (%d appended)\n%!"
      stats.Fastflip.Persist.sv_live path stats.Fastflip.Persist.sv_appended
  | _ -> ());
  let results =
    match metrics with
    | Some path ->
      Telemetry.write ~path ();
      Printf.printf "wrote telemetry to %s\n%!" path;
      let counters = (Telemetry.snapshot ()).Telemetry.snap_counters in
      results @ [ ("metrics", List.map (fun (name, v) -> (name, Int v)) counters) ]
    | None -> results
  in
  if Lazy.is_val pool then Pool.shutdown (Lazy.force pool);
  let gated = List.filter (fun f -> List.mem_assoc f.artifact results) floors in
  match List.filter_map (fun f -> violation (List.assoc f.artifact results) f) gated with
  | [] -> Printf.printf "bench gate: ok (%d rows hold)\n%!" (List.length gated)
  | lines ->
    List.iter prerr_endline lines;
    exit 1
