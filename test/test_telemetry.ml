(* Tests for the telemetry layer: counter atomicity under the domain
   pool, span nesting (including propagation into pool workers),
   deterministic snapshots/JSON, the disabled fast path, and the
   integration contract that the pipeline's process-wide cache counters
   mirror the store's own hit/miss telemetry. *)

module Telemetry = Ff_support.Telemetry
module Json = Ff_support.Json
module Pool = Ff_support.Pool
module Pipeline = Fastflip.Pipeline
module Store = Fastflip.Store
module Campaign = Ff_inject.Campaign
module Site = Ff_inject.Site

(* Each test runs against the process-wide registry: reset + enable at
   entry, disable at exit so suites stay independent. *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

let counter_value name = Telemetry.value (Telemetry.counter name)

let parse_export text =
  match Json.parse text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "the export does not parse: %s" e

(* --- counters ------------------------------------------------------------ *)

let test_disabled_is_noop () =
  Telemetry.reset ();
  Telemetry.set_enabled false;
  let c = Telemetry.counter "test.disabled" in
  Telemetry.add c 5;
  Telemetry.incr c;
  Alcotest.(check int) "disabled adds are dropped" 0 (Telemetry.value c);
  let ran = ref false in
  Telemetry.span "test.disabled_span" (fun () -> ran := true);
  Alcotest.(check bool) "span body still runs" true !ran;
  let snap = Telemetry.snapshot () in
  Alcotest.(check bool) "no span recorded" true
    (not (List.mem_assoc "test.disabled_span" snap.Telemetry.snap_spans))

let test_counter_basics () =
  with_telemetry (fun () ->
      let c = Telemetry.counter "test.basic" in
      Telemetry.add c 41;
      Telemetry.incr c;
      Alcotest.(check int) "accumulates" 42 (Telemetry.value c);
      Alcotest.(check bool) "interning returns the same cell" true
        (Telemetry.value (Telemetry.counter "test.basic") = 42);
      Telemetry.reset ();
      Alcotest.(check int) "reset zeroes" 0 (Telemetry.value c))

let test_counter_atomicity_under_pool () =
  with_telemetry (fun () ->
      let c = Telemetry.counter "test.atomic" in
      let n = 20_000 in
      Pool.with_pool ~domains:4 (fun pool ->
          ignore
            (Pool.map_array ~chunk:7 pool
               (fun i ->
                 Telemetry.incr c;
                 i)
               (Array.init n Fun.id)));
      Alcotest.(check int) "no lost updates across 4 domains" n (Telemetry.value c))

(* --- histograms ---------------------------------------------------------- *)

let test_histogram_buckets () =
  with_telemetry (fun () ->
      let h = Telemetry.histogram "test.hist" in
      List.iter (Telemetry.observe h) [ 0; 1; 1; 3; 900; -7 ];
      let snap = Telemetry.snapshot () in
      let hs = List.assoc "test.hist" snap.Telemetry.snap_histograms in
      Alcotest.(check int) "count" 6 hs.Telemetry.hs_count;
      Alcotest.(check int) "sum" 898 hs.Telemetry.hs_sum;
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hs.Telemetry.hs_buckets in
      Alcotest.(check int) "bucket counts sum to count" 6 total;
      (* 0 and -7 land in bucket 0; the two 1s in [<=1]; 3 in [<=3]; 900 in [<=1023]. *)
      Alcotest.(check int) "bucket <=0" 2 (List.assoc 0 hs.Telemetry.hs_buckets);
      Alcotest.(check int) "bucket <=1" 2 (List.assoc 1 hs.Telemetry.hs_buckets);
      Alcotest.(check int) "bucket <=3" 1 (List.assoc 3 hs.Telemetry.hs_buckets);
      Alcotest.(check int) "bucket <=1023" 1 (List.assoc 1023 hs.Telemetry.hs_buckets))

(* --- spans --------------------------------------------------------------- *)

let span_count snap path =
  match List.assoc_opt path snap.Telemetry.snap_spans with
  | Some s -> s.Telemetry.sp_count
  | None -> 0

let test_span_nesting () =
  with_telemetry (fun () ->
      Telemetry.span "outer" (fun () ->
          Telemetry.span "inner" (fun () -> ());
          Telemetry.span "inner" (fun () -> ()));
      Telemetry.span "outer" (fun () -> ());
      let snap = Telemetry.snapshot () in
      Alcotest.(check int) "outer count" 2 (span_count snap "outer");
      Alcotest.(check int) "nested path count" 2 (span_count snap "outer/inner");
      Alcotest.(check int) "no bare inner" 0 (span_count snap "inner"))

let test_span_attrs_and_exceptions () =
  with_telemetry (fun () ->
      (match
         Telemetry.span "work" ~attrs:[ ("section", "3"); ("kind", "a") ] (fun () ->
             failwith "boom")
       with
      | () -> Alcotest.fail "expected exception"
      | exception Failure _ -> ());
      let snap = Telemetry.snapshot () in
      Alcotest.(check int) "attrs sorted into name; exception still recorded" 1
        (span_count snap "work{kind=a,section=3}");
      Alcotest.(check string) "path restored after exception" "" (Telemetry.current_path ()))

let test_span_propagates_into_pool_workers () =
  with_telemetry (fun () ->
      let n = 64 in
      Pool.with_pool ~domains:4 (fun pool ->
          Telemetry.span "outer" (fun () ->
              ignore
                (Pool.map_array ~chunk:1 pool
                   (fun i ->
                     Telemetry.span "task" (fun () -> i * 2))
                   (Array.init n Fun.id))));
      let snap = Telemetry.snapshot () in
      Alcotest.(check int) "all worker spans nest under the submitter" n
        (span_count snap "outer/task");
      Alcotest.(check int) "none escaped to the root" 0 (span_count snap "task"))

(* --- snapshot / JSON determinism ----------------------------------------- *)

let workload () =
  let c = Telemetry.counter "test.det.counter" in
  let h = Telemetry.histogram "test.det.hist" in
  Pool.with_pool ~domains:3 (fun pool ->
      Telemetry.span "det.outer" (fun () ->
          ignore
            (Pool.map_array pool
               (fun i ->
                 Telemetry.add c i;
                 Telemetry.observe h i;
                 Telemetry.span "det.task" (fun () -> i))
               (Array.init 100 Fun.id))))

let test_snapshot_determinism () =
  with_telemetry (fun () ->
      workload ();
      let json1 = Telemetry.to_json ~timings:false (Telemetry.snapshot ()) in
      Telemetry.reset ();
      workload ();
      let json2 = Telemetry.to_json ~timings:false (Telemetry.snapshot ()) in
      Alcotest.(check string) "timing-free JSON is byte-identical" json1 json2;
      Alcotest.(check bool) "timings key absent" true
        (Json.member "timings" (parse_export json1) = None))

(* The printer's string escapes: a quote, a backslash, newline, carriage
   return, tab, a control byte and a multi-byte UTF-8 character decode
   back byte for byte — through [Json.parse], and through jq when it is
   on PATH. *)
let test_json_escape () =
  let s = "q\"b\\s\nn\rr\tt\001c \xc3\xa9 end" in
  let doc = Json.to_string (Json.Obj [ ("s", Json.Str s) ]) in
  Alcotest.(check string) "escaped"
    "{\n  \"s\": \"q\\\"b\\\\s\\nn\\rr\\tt\\u0001c \xc3\xa9 end\"\n}\n" doc;
  Alcotest.(check bool) "decodes back" true
    (Json.parse doc = Ok (Json.Obj [ ("s", Json.Str s) ]));
  if Sys.command "command -v jq >/dev/null 2>&1" = 0 then begin
    let file = Filename.temp_file "json_escape" ".json" in
    let out = Filename.temp_file "json_escape" ".out" in
    Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc doc);
    let status =
      Sys.command
        (Printf.sprintf "jq -e -j .s %s > %s" (Filename.quote file) (Filename.quote out))
    in
    Alcotest.(check int) "jq -e accepts it" 0 status;
    Alcotest.(check string) "jq decodes it back" s
      (In_channel.with_open_bin out In_channel.input_all);
    Sys.remove file;
    Sys.remove out
  end

(* The export read back by key: its schema, a stable counter, a span's
   count, and the volatile counter and span durations only under
   "timings". *)
let test_json_shape () =
  with_telemetry (fun () ->
      Telemetry.add (Telemetry.counter "test.shape") 7;
      Telemetry.add (Telemetry.counter ~volatile:true "test.shape.volatile") 9;
      Telemetry.span "shape.span" (fun () -> ());
      let at path timings =
        List.fold_left
          (fun v key -> Option.bind v (Json.member key))
          (Some (parse_export (Telemetry.to_json ~timings (Telemetry.snapshot ()))))
          path
      in
      let check what expected path timings =
        Alcotest.(check bool) what true (at path timings = expected)
      in
      check "schema" (Some (Json.Str "fastflip.metrics/1")) [ "schema" ] true;
      check "stable counter" (Some (Json.Int 7)) [ "counters"; "test.shape" ] true;
      check "span count" (Some (Json.Int 1)) [ "spans"; "shape.span" ] true;
      check "volatile counter under timings" (Some (Json.Int 9))
        [ "timings"; "counters"; "test.shape.volatile" ]
        true;
      Alcotest.(check bool) "span durations under timings" true
        (Option.is_some (at [ "timings"; "spans"; "shape.span"; "total_ns" ] true));
      check "volatile counter not among counters" None
        [ "counters"; "test.shape.volatile" ]
        true;
      check "no timings in the stable export" None [ "timings" ] false)

(* A hand-built snapshot, so that a counter added elsewhere does not
   change the golden file. *)
let test_json_golden () =
  let hist = { Telemetry.hs_count = 3; hs_sum = 9; hs_buckets = [ (1, 1); (8, 2) ] } in
  let snap =
    {
      Telemetry.snap_counters = [ ("campaign.injections", 42); ("store.hits", 0) ];
      snap_volatile = [ ("pool.tasks.domain0", 5) ];
      snap_histograms = [ ("section.work", hist) ];
      snap_volatile_histograms = [];
      snap_spans =
        [
          ("analyze", { Telemetry.sp_count = 1; sp_total_ns = 2500; sp_max_ns = 2500 });
          ("analyze/replay", { Telemetry.sp_count = 3; sp_total_ns = 900; sp_max_ns = 400 });
        ];
    }
  in
  let golden = In_channel.with_open_bin "golden/metrics.json" In_channel.input_all in
  Alcotest.(check string) "export matches golden/metrics.json" golden
    (Telemetry.to_json snap)

(* --- progress ------------------------------------------------------------ *)

let test_progress_counts_without_printing () =
  (* FF_PROGRESS is unset and stderr is not a tty under the test runner,
     so the meter must stay silent yet still count steps from any domain. *)
  with_telemetry (fun () ->
      let meter = Telemetry.progress ~label:"test" ~total:500 in
      Pool.with_pool ~domains:4 (fun pool ->
          ignore
            (Pool.map_array pool
               (fun i ->
                 Telemetry.step meter;
                 i)
               (Array.init 500 Fun.id)));
      Alcotest.(check int) "all steps counted" 500 (Telemetry.completed meter);
      Telemetry.finish meter)

(* --- integration: pipeline cache counters mirror the store --------------- *)

let source =
  {|
buffer image : float[8] = { 0.1, 0.6, 0.4, 0.9, 0.2, 0.8, 0.5, 0.3 };
buffer smooth : float[8] = zeros;
output buffer result : float[8] = zeros;

kernel blur(in image: float[], out smooth: float[]) {
  for i in 0..8 {
    var left: int = imax(i - 1, 0);
    var right: int = imin(i + 1, 7);
    smooth[i] = (image[left] + image[i] + image[right]) / 3.0;
  }
}

kernel sharpen(in smooth: float[], out result: float[]) {
  for i in 0..8 {
    result[i] = fmin(fmax(smooth[i] * 1.5 - 0.1, 0.0), 1.0);
  }
}

schedule {
  call blur(image, smooth);
  call sharpen(smooth, result);
}
|}

let quick_config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 1; 42 ] };
    sensitivity_samples = 20;
  }

let test_pipeline_counters_match_store () =
  with_telemetry (fun () ->
      let program = Ff_lang.Frontend.compile_exn source in
      let store = Store.create () in
      let first = Pipeline.analyze ~store quick_config program in
      let second = Pipeline.analyze ~store quick_config program in
      Alcotest.(check int) "telemetry hits = store hits" (Store.hits store)
        (counter_value "store.hits");
      Alcotest.(check int) "telemetry misses = store misses" (Store.misses store)
        (counter_value "store.misses");
      Alcotest.(check int) "reused counter sums both runs"
        (first.Pipeline.sections_reused + second.Pipeline.sections_reused)
        (counter_value "pipeline.sections.reused");
      Alcotest.(check int) "reanalyzed counter sums both runs"
        (first.Pipeline.sections_analyzed + second.Pipeline.sections_analyzed)
        (counter_value "pipeline.sections.reanalyzed");
      (* The incremental contract itself: the second run re-analyzes
         nothing, and every incremental hit is a store hit. *)
      Alcotest.(check int) "second run reuses all sections" 2
        second.Pipeline.sections_reused;
      Alcotest.(check int) "store hit per reused section"
        (counter_value "pipeline.sections.reused")
        (counter_value "store.hits");
      (* Campaign/work counters agree with the analysis' own accounting. *)
      Alcotest.(check int) "pipeline.work counter matches analysis work"
        (first.Pipeline.work + second.Pipeline.work)
        (counter_value "pipeline.work"))

let test_campaign_outcome_tallies_sum_to_injections () =
  with_telemetry (fun () ->
      let program = Ff_lang.Frontend.compile_exn source in
      let golden = Ff_vm.Golden.run program in
      let result =
        Campaign.run_section golden ~section_index:0 quick_config.Pipeline.campaign
      in
      let classes = Array.length result.Campaign.s_classes in
      let tallied =
        counter_value "campaign.outcome.masked"
        + counter_value "campaign.outcome.sdc"
        + counter_value "campaign.outcome.crash"
        + counter_value "campaign.outcome.timeout"
        + counter_value "campaign.outcome.misformatted"
      in
      (* Every class — proved or replayed — lands in exactly one outcome
         tally; the injection counter only counts the residual replays. *)
      Alcotest.(check int) "every class lands in one outcome class" classes tallied;
      Alcotest.(check int) "injection counter matches the campaign"
        result.Campaign.s_injections
        (counter_value "campaign.injections");
      Alcotest.(check int) "proved + residual = classes" classes
        (counter_value "campaign.injections"
        + counter_value "campaign.injections_avoided");
      Alcotest.(check int) "work counter matches the campaign" result.Campaign.s_work
        (counter_value "campaign.work"))

let test_prover_counters_partition_classes () =
  (* The prover's telemetry: classes_proved splits exactly into the
     masked/crash/benign proof kinds, undecided matches the replayed
     residue, and injections_avoided mirrors classes_proved. *)
  with_telemetry (fun () ->
      let program = Ff_lang.Frontend.compile_exn source in
      let golden = Ff_vm.Golden.run program in
      let result =
        Campaign.run_section golden ~section_index:0 quick_config.Pipeline.campaign
      in
      let classes = Array.length result.Campaign.s_classes in
      let proved = counter_value "prover.classes_proved" in
      Alcotest.(check bool) "prover enabled by default" true
        quick_config.Pipeline.campaign.Campaign.prove.Ff_inject.Prover.enabled;
      Alcotest.(check int) "proved + undecided = classes" classes
        (proved + counter_value "prover.classes_undecided");
      Alcotest.(check int) "proof kinds partition the proved"
        proved
        (counter_value "prover.classes_masked"
        + counter_value "prover.classes_crash"
        + counter_value "prover.classes_benign");
      Alcotest.(check int) "injections_avoided mirrors classes_proved" proved
        (counter_value "campaign.injections_avoided");
      Alcotest.(check int) "undecided classes are the ones injected"
        (counter_value "prover.classes_undecided")
        result.Campaign.s_injections;
      (* This blur section is prover-friendly: the pre-pass must actually
         prune something, and the JSON export must carry the counters. *)
      Alcotest.(check bool) "prover proves some classes here" true (proved > 0);
      let counters =
        Json.member "counters"
          (parse_export (Telemetry.to_json ~timings:false (Telemetry.snapshot ())))
      in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " exported") true
            (Option.bind counters (Json.member name) = Some (Json.Int (counter_value name))))
        [
          "prover.classes_proved";
          "prover.classes_masked";
          "prover.classes_crash";
          "prover.classes_benign";
          "prover.classes_undecided";
          "campaign.injections_avoided";
        ])

let () =
  Alcotest.run "telemetry"
    [
      ( "counters",
        [
          Alcotest.test_case "disabled fast path" `Quick test_disabled_is_noop;
          Alcotest.test_case "basics and reset" `Quick test_counter_basics;
          Alcotest.test_case "atomic under 4-domain pool" `Quick
            test_counter_atomicity_under_pool;
        ] );
      ( "histograms",
        [ Alcotest.test_case "power-of-two buckets" `Quick test_histogram_buckets ] );
      ( "spans",
        [
          Alcotest.test_case "nesting paths" `Quick test_span_nesting;
          Alcotest.test_case "attrs and exceptions" `Quick test_span_attrs_and_exceptions;
          Alcotest.test_case "propagation into pool workers" `Quick
            test_span_propagates_into_pool_workers;
        ] );
      ( "export",
        [
          Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "json string escaping" `Quick test_json_escape;
          Alcotest.test_case "golden export" `Quick test_json_golden;
        ] );
      ( "progress",
        [
          Alcotest.test_case "counts without printing" `Quick
            test_progress_counts_without_printing;
        ] );
      ( "integration",
        [
          Alcotest.test_case "pipeline counters mirror the store" `Quick
            test_pipeline_counters_match_store;
          Alcotest.test_case "outcome tallies sum to injections" `Quick
            test_campaign_outcome_tallies_sum_to_injections;
          Alcotest.test_case "prover counters partition classes" `Quick
            test_prover_counters_partition_classes;
        ] );
    ]
