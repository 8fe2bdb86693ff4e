(* The repository benchmark. Four closed-loop workloads, one client each,
   over the 15 built-in programs (5 benchmarks x None/Small/Large):

     cold    compile -> Pipeline.analyze -> Report.analysis, default config
     evolve  the CI flow: load a store holding the None analysis, analyze
             Small or Large against it, report, save
     skip    as cold, under the skip fault model
     serve   warm Analyze requests to a forked `fastflip serve -j 1` daemon

   Every report is checked against the MD5 digests in
   perfsuite/expected/suite.digests. Analysis runs serially. --seed only
   shuffles the order of operations; the analysis itself keeps seed 42.

   Run from the repository root (see perfsuite/README.md):
     sh perfsuite/run.sh                                  # all four workloads
     sh perfsuite/run.sh --workload cold --seed 3 --seconds 15 --trace 0
     sh perfsuite/run.sh --workload skip --trace 1        # per-layer pass
     sh perfsuite/run.sh --smoke                          # one pass each
     sh perfsuite/run.sh --write-expected                 # regenerate digests

   Each workload runs in its own child process, so set-up time and peak
   memory are per workload. Set-up time is measured by the parent, from
   starting a child to the child's report that its set-up is done; two more
   children only set up, so [setup_s] is the median of three cold starts.
   The measuring child prints one line per metric (`workload metric value
   unit`) and, last, one JSON object with the keys correct, attempted,
   failed and metrics, to which the parent adds [setup_s]. *)

open Ff_benchmarks
module Pipeline = Fastflip.Pipeline
module Store = Fastflip.Store
module Persist = Fastflip.Persist
module Protocol = Ff_serve.Protocol
module Client = Ff_serve.Client
module Engine = Ff_serve.Engine
module Stats = Ff_support.Stats
module Rng = Ff_support.Rng
module Table = Ff_support.Table

let now = Chain.now

let timed f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

let workload_names = [ "cold"; "evolve"; "skip"; "serve" ]
let digests_path = "perfsuite/expected/suite.digests"
let batch_target = 0.9
let serve_targets = [ 0.9; 0.95; 0.99 ]

(* Cold starts per workload whose median is [setup_s]. *)
let setup_runs = 3

(* What a child prints once its set-up is done; the parent times it. *)
let ready_marker = "perfsuite: set-up done"

(* --- options ------------------------------------------------------------ *)

type opts = {
  workloads : string list;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  record : bool;
  json : string;
  child : bool;
  setup_only : bool;
}

let usage =
  "usage: suite.exe [--workload cold|evolve|skip|serve]... [--seed N] [--seconds S]\n\
  \                 [--trace 0|1] [--smoke] [--write-expected] [--json FILE]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
      if not (List.mem w workload_names) then die "unknown workload %S\n%s" w usage;
      go { o with workloads = o.workloads @ [ w ] } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seed -> go { o with seed } rest
      | None -> die "bad --seed %S" n)
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds >= 0.0 -> go { o with seconds } rest
      | _ -> die "bad --seconds %S" s)
    | "--trace" :: (("0" | "1") as t) :: rest -> go { o with trace = t = "1" } rest
    | "--json" :: file :: rest -> go { o with json = file } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--write-expected" :: rest -> go { o with record = true } rest
    | "--child" :: rest -> go { o with child = true } rest
    | "--setup-only" :: rest -> go { o with setup_only = true } rest
    | arg :: _ -> die "unexpected argument %S\n%s" arg usage
  in
  go
    {
      workloads = [];
      seed = 11;
      seconds = 15.0;
      trace = false;
      smoke = false;
      record = false;
      json = "BENCH_suite.json";
      child = false;
      setup_only = false;
    }
    argv

(* --- the expected-output oracle ----------------------------------------- *)

(* One MD5 per (workload, benchmark, version, target), over the report
   text. When recording, the first digest seen for a key is kept. *)
type oracle = {
  expected : (string, string) Hashtbl.t;
  recording : bool;
}

let digest_lines () =
  In_channel.with_open_text digests_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "")

let load_oracle ~workload ~recording =
  let expected = Hashtbl.create 64 in
  if not recording then
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ w; bench; version; target; md5 ] when String.equal w workload ->
          Hashtbl.replace expected (String.concat " " [ bench; version; target ]) md5
        | _ -> ())
      (digest_lines ());
  { expected; recording }

let check oracle key text =
  let md5 = Digest.to_hex (Digest.string text) in
  if oracle.recording then begin
    if not (Hashtbl.mem oracle.expected key) then Hashtbl.replace oracle.expected key md5;
    true
  end
  else
    match Hashtbl.find_opt oracle.expected key with
    | Some e when String.equal e md5 -> true
    | Some _ ->
      Printf.eprintf "digest mismatch: %s\n%!" key;
      false
    | None ->
      Printf.eprintf "no expected digest for %s\n%!" key;
      false

let append_oracle ~workload oracle =
  let lines =
    Hashtbl.fold
      (fun key md5 acc -> Printf.sprintf "%s %s %s\n" workload key md5 :: acc)
      oracle.expected []
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 digests_path
    (fun oc -> List.iter (output_string oc) (List.sort compare lines))

(* Before recording, drop the digests of the workloads about to be
   recorded and keep every other workload's. *)
let forget_oracle workloads =
  let kept =
    if Sys.file_exists digests_path then
      List.filter
        (fun line ->
          match String.split_on_char ' ' line with
          | w :: _ -> not (List.mem w workloads)
          | [] -> false)
        (digest_lines ())
    else []
  in
  Out_channel.with_open_text digests_path (fun oc ->
      List.iter (fun line -> output_string oc (line ^ "\n")) kept)

(* --- programs ------------------------------------------------------------ *)

type program = {
  bench : Defs.t;
  version : Defs.version;
  source : string;
}

let programs versions =
  List.concat_map
    (fun bench ->
      List.map
        (fun version -> { bench; version; source = bench.Defs.source version })
        versions)
    Registry.all

let key_of prog target =
  Printf.sprintf "%s %s %.2f" prog.bench.Defs.name (Defs.version_name prog.version) target

let label prog = prog.bench.Defs.name ^ "/" ^ Defs.version_name prog.version

(* --- scratch files, inside the working directory ------------------------- *)

let scratch = Printf.sprintf "_perfsuite/%d" (Unix.getpid ())

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let fresh_dir dir =
  remove_tree dir;
  mkdir_p dir;
  dir

let copy_dir src dst =
  Array.iter
    (fun n ->
      let data = In_channel.with_open_bin (Filename.concat src n) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst n) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let status =
    In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all
  in
  match
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" Option.some
        | _ -> None)
      (String.split_on_char '\n' status)
  with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM in /proc status"

(* --- measurements -------------------------------------------------------- *)

(* Latencies of one workload's measured operations. A pass runs every
   distinct operation once, in seed-shuffled order. *)
type samples = {
  lat : float list array;  (* per distinct operation *)
  mutable passes : int;
  mutable pass_s : float list;  (* per pass: the sum of its latencies *)
  mutable pass_work : int list;  (* per pass: analysis work, dyn. instr. *)
  mutable attempted : int;
  mutable failed : int;
}

let samples n =
  { lat = Array.make n []; passes = 0; pass_s = []; pass_work = []; attempted = 0; failed = 0 }

let all_latencies s = List.concat (Array.to_list s.lat)

(* The time metrics, printed but not bounded: on a machine whose cache and
   memory bandwidth are shared with other tenants they do not repeat
   within 10 % from one run to the next in a busy hour (see README.md).
   Medians over passes, as a slower phase of the machine moves them only
   once it covers half of a run. *)
let print_times workload s =
  let all = all_latencies s in
  let op_medians =
    List.filter_map
      (function [] -> None | l -> Some (Stats.median l))
      (Array.to_list s.lat)
  in
  let print (name, v, unit) = Printf.printf "%s %s %.6g %s\n" workload name v unit in
  List.iter print
    [
      ("samples", float_of_int (List.length all), "count");
      ("ops_per_s", float_of_int (Array.length s.lat) /. Stats.median s.pass_s, "ops/s");
      ("op_ms_gmean", 1e3 *. Stats.geomean op_medians, "ms");
    ];
  List.iter
    (fun p -> print (Printf.sprintf "op_ms_p%g" p, 1e3 *. Stats.percentile p all, "ms"))
    [ 50.0; 90.0; 99.0 ]

(* Runs passes until [seconds] have gone by, at least one. *)
let run_passes s ~seconds f =
  let t0 = now () in
  while s.passes = 0 || now () -. t0 < seconds do
    f ();
    s.passes <- s.passes + 1
  done

let shuffled rng n =
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  order

(* --- traced-pass bookkeeping --------------------------------------------- *)

type trace = {
  mutable traced : (Chain.acc * float) list;  (* per traced pass: layers, wall *)
  mutable untraced : float list;  (* untraced pass walls *)
  per_op : (string, Chain.acc) Hashtbl.t;  (* summed over traced passes *)
  mutable identical : bool;
}

let new_trace () =
  { traced = []; untraced = []; per_op = Hashtbl.create 64; identical = true }

let note_op trace key acc =
  let into =
    match Hashtbl.find_opt trace.per_op key with
    | Some a -> a
    | None ->
      let a = Chain.create () in
      Hashtbl.replace trace.per_op key a;
      a
  in
  Chain.add_into into acc

let sum_accs accs =
  let total = Chain.create () in
  List.iter (Chain.add_into total) accs;
  total

let dominant acc =
  Array.fold_left
    (fun (best, s) l -> if Chain.self acc l > s then (l, Chain.self acc l) else (best, s))
    (Chain.Frontend, neg_infinity) Chain.layers

let print_layer_table ~title rows =
  let total = sum_accs (List.map snd rows) in
  let shown =
    List.filter (fun l -> Chain.self total l > 0.0) (Array.to_list Chain.layers)
  in
  let columns = List.map (fun l -> (Chain.name l ^ " ms", Table.Right)) shown in
  let t =
    Table.create ~title ((("op", Table.Left) :: columns) @ [ ("dominant", Table.Left) ])
  in
  List.iter
    (fun (key, acc) ->
      let ms =
        List.map (fun l -> Printf.sprintf "%.2f" (1e3 *. Chain.self acc l)) shown
      in
      Table.add_row t ((key :: ms) @ [ Chain.name (fst (dominant acc)) ]))
    rows;
  Table.print t

(* The traced pass of median wall time (the lower one of an even count). *)
let median_pass passes =
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) passes in
  List.nth sorted ((List.length sorted - 1) / 2)

(* Per-layer metrics. [layers] holds the self seconds and work counts of
   the median traced pass, [pass_s] its wall time; the shares are medians
   over all traced passes [rounds]. *)
let per_layer ~layers ~pass_s ~rounds ~untraced =
  let med f = Stats.median (List.map f rounds) in
  let share l = med (fun (acc, wall) -> Chain.self acc l /. wall) in
  let self_s l = (Chain.name l ^ ".self_s", Chain.self layers l, "s") in
  let count n = float_of_int n in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let mdyn n = float_of_int n /. 1e6 in
  let ns_per l n = if n = 0 then 0.0 else Chain.self layers l *. 1e9 /. float_of_int n in
  let c = layers in
  [
    self_s Chain.Frontend;
    self_s Chain.Golden;
    ("golden.dyn_instr", count c.Chain.dyn_instr, "count");
    self_s Chain.Eqclass_enum;
    ("eqclass.classes", count c.Chain.classes, "count");
    self_s Chain.Prove;
    ("prover.proved", count c.Chain.proved, "count");
    ("prover.proved_ratio", ratio c.Chain.proved c.Chain.classes, "fraction");
    self_s Chain.Replay;
    ("replay.injections", count c.Chain.injections, "count");
    ("replay.work_mdyn", mdyn c.Chain.replay_work, "Mdyn");
    ("replay.ns_per_instr", ns_per Chain.Replay c.Chain.replay_work, "ns/instr");
    self_s Chain.Sensitivity_sampling;
    ("sensitivity.work_mdyn", mdyn c.Chain.sens_work, "Mdyn");
    self_s Chain.Propagate;
    self_s Chain.Valuation;
    self_s Chain.Knapsack;
    ("knapsack.items", count c.Chain.items, "count");
    ("knapsack.dp_cells", count c.Chain.dp_cells, "count");
    ("knapsack.ns_per_cell", ns_per Chain.Knapsack c.Chain.dp_cells, "ns/cell");
    self_s Chain.Report;
    ("store.load_share", share Chain.Store_load, "fraction");
    ("store.save_share", share Chain.Store_save, "fraction");
    ("store.lookup_share", share Chain.Store_lookup, "fraction");
    ("store.reused_ratio", ratio c.Chain.reused c.Chain.sections, "fraction");
    ("store.appended", count c.Chain.appended, "count");
    ("serve.cache_share", share Chain.Serve_cache, "fraction");
    ("serve.transport_share", share Chain.Serve_transport, "fraction");
    ( "unattributed.share",
      med (fun (acc, wall) -> (wall -. Chain.total_self acc) /. wall),
      "fraction" );
    ("trace.overhead_ratio", (pass_s /. Stats.median untraced) -. 1.0, "ratio");
    ("trace.pass_s", pass_s, "s");
    ("work_mdyn", mdyn c.Chain.work, "Mdyn");
  ]

(* --- batch workloads: cold, evolve, skip ---------------------------------- *)

type batch = {
  config : Pipeline.config;
  versions : Defs.version list;
  evolve : bool;
}

let batch_of = function
  | "cold" ->
    { config = Pipeline.default_config; versions = Defs.all_versions; evolve = false }
  | "evolve" ->
    {
      config = Pipeline.default_config;
      versions = [ Defs.V_small; Defs.V_large ];
      evolve = true;
    }
  | "skip" ->
    let cfg = Pipeline.default_config in
    let model = Ff_inject.Fault_model.of_string_exn "skip" in
    {
      config =
        {
          cfg with
          Pipeline.campaign = { cfg.Pipeline.campaign with Ff_inject.Campaign.model };
        };
      versions = Defs.all_versions;
      evolve = false;
    }
  | w -> invalid_arg w

let work_store = Filename.concat scratch "work/store"
let pristine = Filename.concat scratch "pristine"

(* One operation: for evolve, load the staged store first and save it
   last. With [acc] the analysis runs layer by layer, timed. *)
let batch_op w ?acc prog =
  let store =
    if not w.evolve then None
    else
      match
        Chain.maybe_time acc Chain.Store_load (fun () -> Persist.load ~path:work_store)
      with
      | Ok (st, 0) -> Some st
      | Ok (_, skipped) ->
        failwith (Printf.sprintf "store load skipped %d records" skipped)
      | Error e -> failwith e
  in
  let program =
    Chain.maybe_time acc Chain.Frontend (fun () ->
        Ff_lang.Frontend.compile_exn prog.source)
  in
  let analysis =
    match acc with
    | None -> Pipeline.analyze ?store w.config program
    | Some acc -> Chain.analyze ?store acc w.config program
  in
  let text =
    Chain.maybe_time acc Chain.Report (fun () ->
        Ff_serve.Report.analysis ~target:batch_target analysis)
  in
  Option.iter
    (fun st ->
      let stats =
        Chain.maybe_time acc Chain.Store_save (fun () -> Persist.save st ~path:work_store)
      in
      Option.iter
        (fun a -> a.Chain.appended <- a.Chain.appended + stats.Persist.sv_appended)
        acc)
    store;
  (text, analysis)

(* Untimed: collect the previous operation's garbage, so an operation's
   time does not depend on the shuffled order, and for evolve put a copy
   of the benchmark's pristine None store in place. *)
let stage w prog =
  Gc.full_major ();
  if w.evolve then begin
    let dir = fresh_dir (Filename.dirname work_store) in
    copy_dir (Filename.concat pristine prog.bench.Defs.name) dir
  end

(* Sources compiled, pristine stores built (evolve), and one warm-up
   operation done and checked. *)
let batch_setup w oracle =
  let progs = programs w.versions in
  List.iter (fun p -> ignore (Ff_lang.Frontend.compile_exn p.source)) progs;
  if w.evolve then
    List.iter
      (fun bench ->
        let store = Store.create () in
        let program = Ff_lang.Frontend.compile_exn (bench.Defs.source Defs.V_none) in
        ignore (Pipeline.analyze ~store w.config program);
        let dir = fresh_dir (Filename.concat pristine bench.Defs.name) in
        ignore (Persist.save store ~path:(Filename.concat dir "store")))
      Registry.all;
  let first = List.hd progs in
  stage w first;
  let text, _ = batch_op w first in
  if not (check oracle (key_of first batch_target) text) then
    failwith ("warm-up operation failed its digest check: " ^ label first);
  Array.of_list progs

let run_batch_op w oracle s i prog =
  stage w prog;
  s.attempted <- s.attempted + 1;
  match timed (fun () -> batch_op w prog) with
  | (text, analysis), dt ->
    s.lat.(i) <- dt :: s.lat.(i);
    if not (check oracle (key_of prog batch_target) text) then s.failed <- s.failed + 1;
    Some (dt, analysis)
  | exception e ->
    Printf.eprintf "%s failed: %s\n%!" (label prog) (Printexc.to_string e);
    s.failed <- s.failed + 1;
    None

let measure_batch w oracle ~opts ~rng progs =
  let s = samples (Array.length progs) in
  run_passes s ~seconds:opts.seconds (fun () ->
      let work = ref 0 and wall = ref 0.0 in
      Array.iter
        (fun i ->
          match run_batch_op w oracle s i progs.(i) with
          | Some (dt, a) ->
            work := !work + a.Pipeline.work;
            wall := !wall +. dt
          | None -> ())
        (shuffled rng (Array.length progs));
      s.pass_work <- !work :: s.pass_work;
      s.pass_s <- !wall :: s.pass_s);
  s

(* Alternating untraced and traced passes over the same operations in the
   same order. Each traced result must equal the untraced one. *)
let trace_batch w oracle ~opts ~rng progs =
  let s = samples (Array.length progs) in
  let tr = new_trace () in
  let reference = Array.make (Array.length progs) None in
  let traced_op pass wall i =
    let prog = progs.(i) in
    stage w prog;
    s.attempted <- s.attempted + 1;
    let acc = Chain.create () in
    match timed (fun () -> batch_op w ~acc prog) with
    | (text, a), dt ->
      wall := !wall +. dt;
      Chain.add_into pass acc;
      note_op tr (label prog) acc;
      let same =
        match reference.(i) with
        | Some r -> Stdlib.compare r (a.Pipeline.valuation, a.Pipeline.solution) = 0
        | None -> false
      in
      if not same then begin
        Printf.eprintf "FATAL: traced analysis of %s differs from Pipeline.analyze\n%!"
          (label prog);
        tr.identical <- false
      end;
      if not (same && check oracle (key_of prog batch_target) text) then
        s.failed <- s.failed + 1
    | exception e ->
      Printf.eprintf "%s (traced) failed: %s\n%!" (label prog) (Printexc.to_string e);
      s.failed <- s.failed + 1
  in
  run_passes s ~seconds:opts.seconds (fun () ->
      let order = shuffled rng (Array.length progs) in
      let wall = ref 0.0 in
      Array.iter
        (fun i ->
          reference.(i) <-
            Option.map
              (fun (dt, a) ->
                wall := !wall +. dt;
                (a.Pipeline.valuation, a.Pipeline.solution))
              (run_batch_op w oracle s i progs.(i)))
        order;
      tr.untraced <- !wall :: tr.untraced;
      let pass = Chain.create () and wall = ref 0.0 in
      Array.iter (traced_op pass wall) order;
      tr.traced <- (pass, !wall) :: tr.traced);
  (s, tr)

(* --- serve ---------------------------------------------------------------- *)

let request prog target =
  Protocol.Analyze
    { source = prog.source; query = { Protocol.default_query with Protocol.q_target = target } }

let serve_config =
  let q = Protocol.default_query in
  Engine.config_of ~model:q.Protocol.q_model ~bits:q.Protocol.q_bits
    ~samples:q.Protocol.q_samples ~epsilon:q.Protocol.q_epsilon
    ~prove:q.Protocol.q_prove ()

let live_daemons : (int * string) list ref = ref []

let stop_daemon (pid, socket) =
  ignore (Client.request ~socket Protocol.Shutdown);
  let deadline = now () +. 15.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live_daemons := List.filter (fun (p, _) -> p <> pid) !live_daemons

(* What `fastflip serve -j 1` runs, in a child forked before any domain
   or thread exists in this process. Its banners go to stderr: stdout
   carries this process's results. *)
let start_daemon socket =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.dup2 Unix.stderr Unix.stdout;
    let code =
      try
        Ff_serve.Server.run ~socket ~pool:Ff_support.Pool.serial ();
        0
      with e ->
        prerr_endline ("daemon: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    live_daemons := (pid, socket) :: !live_daemons;
    let deadline = now () +. 60.0 in
    let rec ready () =
      match Client.request ~socket Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | _ ->
        if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
          live_daemons := List.filter (fun (p, _) -> p <> pid) !live_daemons;
          failwith "serve daemon exited during start-up"
        end;
        if now () > deadline then failwith "serve daemon did not come up within 60 s";
        Unix.sleepf 0.01;
        ready ()
    in
    ready ();
    (pid, socket)

let reply_text = function
  | Protocol.Report text -> Ok text
  | Protocol.Error msg -> Error msg
  | _ -> Error "unexpected response"

let ask fd prog target = Result.bind (Client.exchange fd (request prog target)) reply_text

(* A daemon up and holding all 15 programs warm. *)
let serve_setup oracle =
  let progs = Array.of_list (programs Defs.all_versions) in
  mkdir_p scratch;
  let daemon = start_daemon (Filename.concat scratch "d.sock") in
  Client.with_connection ~socket:(snd daemon) (fun fd ->
      Array.iter
        (fun prog ->
          match ask fd prog batch_target with
          | Ok text when check oracle (key_of prog batch_target) text -> ()
          | _ -> failwith ("serve warm-up failed for " ^ label prog))
        progs);
  (progs, daemon)

(* The fixed request mix: every program at every target, once per pass. *)
let serve_mix progs =
  Array.of_list
    (List.concat_map
       (fun p -> List.map (fun t -> (p, t)) serve_targets)
       (Array.to_list progs))

let serve_request oracle s fd i (prog, target) =
  s.attempted <- s.attempted + 1;
  match timed (fun () -> ask fd prog target) with
  | Ok text, dt ->
    s.lat.(i) <- dt :: s.lat.(i);
    if not (check oracle (key_of prog target) text) then s.failed <- s.failed + 1;
    dt
  | Error msg, _ ->
    Printf.eprintf "%s @ %.2f failed: %s\n%!" (label prog) target msg;
    s.failed <- s.failed + 1;
    0.0

let measure_serve oracle ~opts ~rng ~socket mix =
  let s = samples (Array.length mix) in
  Client.with_connection ~socket (fun fd ->
      run_passes s ~seconds:opts.seconds (fun () ->
          let wall = ref 0.0 in
          Array.iter
            (fun i -> wall := !wall +. serve_request oracle s fd i mix.(i))
            (shuffled rng (Array.length mix));
          s.pass_s <- !wall :: s.pass_s;
          s.pass_work <- 0 :: s.pass_work));
  s

(* The traced serve run. First the analysis layers are timed while the
   programs are analysed in process into one shared store, in the order
   the daemon's warm-up uses: the work the daemon's set-up does. Then an
   in-process [Engine] with a serial pool is warmed the same way. Each
   traced request times, in process, the frontend and the report on that
   analysis and the whole [Engine.handle]; the cache layer is handle -
   frontend - report. The request then goes to the daemon, and its round
   trip minus the handling is charged to transport, so the layers split
   the round trip the client sees. Returns the samples, the request trace
   and the warm-up per program. *)
let trace_serve oracle ~opts ~rng ~socket progs mix =
  let s = samples (Array.length mix) in
  let tr = new_trace () in
  let expect key text =
    if not (check oracle key text) then begin
      Printf.eprintf "FATAL: traced serve output for %s does not match its digest\n%!" key;
      tr.identical <- false
    end
  in
  let store = Store.create () and analyses = Hashtbl.create 16 in
  let warm =
    Array.to_list progs
    |> List.map (fun prog ->
           let acc = Chain.create () in
           let program =
             Chain.time acc Chain.Frontend (fun () ->
                 Ff_lang.Frontend.compile_exn prog.source)
           in
           let a = Chain.analyze ~store acc serve_config program in
           expect (key_of prog batch_target)
             (Chain.time acc Chain.Report (fun () ->
                  Ff_serve.Report.analysis ~target:batch_target a));
           Hashtbl.replace analyses prog.source a;
           (label prog, acc))
  in
  let engine = Engine.create ~pool:Ff_support.Pool.serial () in
  let handle prog target =
    match reply_text (Engine.handle engine (request prog target)) with
    | Ok text -> expect (key_of prog target) text
    | Error msg -> failwith (label prog ^ ": in-process engine: " ^ msg)
  in
  Array.iter (fun prog -> handle prog batch_target) progs;
  let traced_request fd round rtt i =
    let prog, target = mix.(i) in
    let acc = Chain.create () in
    ignore
      (Chain.time acc Chain.Frontend (fun () -> Ff_lang.Frontend.compile_exn prog.source));
    expect (key_of prog target)
      (Chain.time acc Chain.Report (fun () ->
           Ff_serve.Report.analysis ~target (Hashtbl.find analyses prog.source)));
    let (), dt_handle = timed (fun () -> handle prog target) in
    Chain.charge acc Chain.Serve_cache (dt_handle -. Chain.total_self acc);
    let dt = serve_request oracle s fd i mix.(i) in
    Chain.charge acc Chain.Serve_transport (dt -. dt_handle);
    rtt := !rtt +. dt;
    Chain.add_into round acc;
    note_op tr (label prog) acc
  in
  Client.with_connection ~socket (fun fd ->
      run_passes s ~seconds:opts.seconds (fun () ->
          let order = shuffled rng (Array.length mix) in
          let rtt = ref 0.0 in
          Array.iter (fun i -> rtt := !rtt +. serve_request oracle s fd i mix.(i)) order;
          tr.untraced <- !rtt :: tr.untraced;
          let round = Chain.create () and rtt = ref 0.0 in
          Array.iter (traced_request fd round rtt) order;
          tr.traced <- (round, !rtt) :: tr.traced));
  (s, tr, warm)

(* --- one workload, in this process ------------------------------------------ *)

let report_ready () =
  print_endline ready_marker;
  flush stdout

(* [None] after a set-up-only run; otherwise the samples, the metrics and
   whether every traced result matched. *)
let run_serve opts oracle ~rng =
  let progs, (pid, socket) = serve_setup oracle in
  report_ready ();
  let mix = serve_mix progs in
  if opts.setup_only then None
  else if opts.trace then begin
    let s, tr, warm = trace_serve oracle ~opts ~rng ~socket progs mix in
    let rows = Hashtbl.fold (fun k a acc -> (k, a) :: acc) tr.per_op [] in
    print_layer_table ~title:"serve: in-process warm-up, per program" warm;
    print_layer_table ~title:"serve: requests, summed over traced passes"
      (List.sort compare rows);
    let warm = sum_accs (List.map snd warm) in
    Printf.printf "serve trace dominant %s (requests); %s (warm-up)\n"
      (Chain.name (fst (dominant (sum_accs (List.map fst tr.traced)))))
      (Chain.name (fst (dominant warm)));
    (* The warm-up plus the median request pass. *)
    let round, pass_s = median_pass tr.traced in
    let layers = sum_accs [ warm; round ] in
    Some (s, per_layer ~layers ~pass_s ~rounds:tr.traced ~untraced:tr.untraced, tr.identical)
  end
  else begin
    let s = measure_serve oracle ~opts ~rng ~socket mix in
    let rss_mb = peak_rss_mb (string_of_int pid) in
    print_times "serve" s;
    Some (s, [ ("peak_rss_mb", rss_mb, "MiB") ], true)
  end

let run_batch opts oracle workload ~rng =
  let w = batch_of workload in
  let progs = batch_setup w oracle in
  report_ready ();
  if opts.setup_only then None
  else if opts.trace then begin
    let s, tr = trace_batch w oracle ~opts ~rng progs in
    let rows =
      Array.to_list
        (Array.map (fun p -> (label p, Hashtbl.find tr.per_op (label p))) progs)
    in
    print_layer_table
      ~title:
        (Printf.sprintf "%s: self time per op, summed over %d traced passes" workload
           (List.length tr.traced))
      rows;
    let d, self = dominant (sum_accs (List.map fst tr.traced)) in
    Printf.printf "%s trace dominant %s (%.1f%% of traced time)\n" workload (Chain.name d)
      (100.0 *. self /. List.fold_left (fun a (_, wall) -> a +. wall) 0.0 tr.traced);
    let layers, pass_s = median_pass tr.traced in
    Some (s, per_layer ~layers ~pass_s ~rounds:tr.traced ~untraced:tr.untraced, tr.identical)
  end
  else begin
    let s = measure_batch w oracle ~opts ~rng progs in
    let rss_mb = peak_rss_mb "self" in
    print_times workload s;
    Some (s, [ ("peak_rss_mb", rss_mb, "MiB") ], true)
  end

let json_number v =
  if not (Float.is_finite v) then failwith "non-finite metric value";
  Printf.sprintf "%.17g" v

let metric_json (name, v, unit) =
  Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit

let metrics_key = {|"metrics": {|}

let result_json ~correct s metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, %s%s}}|} correct
    s.attempted s.failed metrics_key
    (String.concat ", " (List.map metric_json metrics))

let run_workload opts workload =
  let oracle = load_oracle ~workload ~recording:opts.record in
  let rng = Rng.create (Int64.of_int opts.seed) in
  match
    if String.equal workload "serve" then run_serve opts oracle ~rng
    else run_batch opts oracle workload ~rng
  with
  | None -> 0
  | Some (s, metrics, identical) ->
    if opts.record then append_oracle ~workload oracle;
    Printf.printf "%s passes %d count\n" workload s.passes;
    if s.pass_work <> [] then
      Printf.printf "%s work_mdyn %.6f Mdyn/pass\n" workload
        (Stats.median (List.map float_of_int s.pass_work) /. 1e6);
    Printf.printf "%s failed_ratio %.6g fraction\n" workload
      (float_of_int s.failed /. float_of_int (max 1 s.attempted));
    List.iter
      (fun (name, v, unit) -> Printf.printf "%s %s %.6g %s\n" workload name v unit)
      metrics;
    let correct = s.failed = 0 && identical in
    print_endline (result_json ~correct s metrics);
    if correct then 0 else 1

(* --- the suite: one child process per workload ------------------------------ *)

let child_args opts workload ~setup_only =
  Array.of_list
    ([
       Sys.executable_name;
       "--child";
       "--workload";
       workload;
       "--seed";
       string_of_int opts.seed;
       "--seconds";
       Printf.sprintf "%.17g" opts.seconds;
       "--trace";
       (if opts.trace then "1" else "0");
     ]
    @ (if opts.smoke then [ "--smoke" ] else [])
    @ (if opts.record then [ "--write-expected" ] else [])
    @ if setup_only then [ "--setup-only" ] else [])

(* Runs one child, echoing all but its last line and the ready marker.
   Returns whether it succeeded, the seconds from its start to its ready
   marker, and its last line (its JSON result). *)
let run_child opts workload ~setup_only =
  let t0 = now () in
  let ic =
    Unix.open_process_args_in Sys.executable_name (child_args opts workload ~setup_only)
  in
  let ready = ref None in
  let rec echo last =
    match input_line ic with
    | line when String.equal line ready_marker ->
      ready := Some (now () -. t0);
      echo last
    | line ->
      Option.iter print_endline last;
      echo (Some line)
    | exception End_of_file -> last
  in
  let last = echo None in
  (Unix.close_process_in ic = Unix.WEXITED 0, !ready, last)

(* [line] with [setup_s] added as the first of its metrics. *)
let with_setup setup_s line =
  let k = String.length metrics_key in
  let rec find i =
    if i + k > String.length line then line
    else if String.equal (String.sub line i k) metrics_key then
      let rest = String.sub line (i + k) (String.length line - i - k) in
      let sep = if String.length rest > 0 && rest.[0] = '}' then "" else ", " in
      String.sub line 0 (i + k) ^ metric_json ("setup_s", setup_s, "s") ^ sep ^ rest
    else find (i + 1)
  in
  find 0

(* The measuring child, then (for a measured run) [setup_runs - 1] children
   that only set up; [setup_s] is the median of all their set-up times. *)
let run_workload_children opts workload =
  let ok, ready, last = run_child opts workload ~setup_only:false in
  if opts.trace || not ok then (ok, last)
  else
    let probes =
      if opts.smoke || opts.record then []
      else List.init (setup_runs - 1) (fun _ -> run_child opts workload ~setup_only:true)
    in
    match
      List.map (fun (ok, ready, _) -> if ok then ready else None) probes
      |> List.cons ready
      |> List.filter_map Fun.id
    with
    | times when List.length times = 1 + List.length probes ->
      let setup_s = Stats.median times in
      Printf.printf "%s setup_s %.6g s\n" workload setup_s;
      (true, Option.map (with_setup setup_s) last)
    | _ ->
      Printf.eprintf "%s: a set-up run failed\n%!" workload;
      (false, None)

let run_suite opts =
  let workloads = if opts.workloads = [] then workload_names else opts.workloads in
  if opts.record then forget_oracle workloads;
  let results = List.map (fun w -> (w, run_workload_children opts w)) workloads in
  let entry (w, (_, last)) =
    match last with
    | Some line when String.length line > 0 && line.[0] = '{' ->
      Printf.sprintf "    %S: %s" w line
    | _ -> Printf.sprintf "    %S: null" w
  in
  Out_channel.with_open_text opts.json (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"seed\": %d,\n\
        \  \"seconds\": %g,\n\
        \  \"trace\": %b,\n\
        \  \"smoke\": %b,\n\
        \  \"workloads\": {\n\
         %s\n\
        \  }\n\
         }\n"
        opts.seed opts.seconds opts.trace (opts.smoke || opts.record)
        (String.concat ",\n" (List.map entry results)));
  Printf.printf "wrote %s\n" opts.json;
  let failed = List.filter (fun (_, (ok, _)) -> not ok) results in
  (match results with
  | [ (_, (true, Some last)) ] -> print_endline last
  | _ ->
    Printf.printf "suite: %d workloads, %d failed\n" (List.length results)
      (List.length failed));
  if failed = [] then 0 else 1

let () =
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  let opts = if opts.smoke || opts.record then { opts with seconds = 0.0 } else opts in
  if opts.child then begin
    at_exit (fun () ->
        List.iter stop_daemon !live_daemons;
        remove_tree scratch;
        try Unix.rmdir "_perfsuite" with Unix.Unix_error _ -> ());
    match opts.workloads with
    | [ w ] ->
      exit
        (try run_workload opts w
         with e ->
           Printf.eprintf "%s: %s\n%!" w (Printexc.to_string e);
           2)
    | _ -> die "--child takes exactly one --workload"
  end
  else exit (run_suite opts)
