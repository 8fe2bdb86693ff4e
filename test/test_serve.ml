(* Tests for the serve daemon: protocol codec roundtrips, frame fuzzing
   (a hostile or broken client must never crash the daemon or corrupt its
   warm state), in-place response framing, the warm cache (a repeat
   request re-runs nothing and allocates nothing lasting), its report
   memo, an entry that does not keep its analysis alive, and the
   store-covered fast path. *)

module Protocol = Ff_serve.Protocol
module Engine = Ff_serve.Engine
module Cache = Ff_serve.Cache
module Wire = Fastflip.Wire
module Hashing = Ff_support.Hashing
module Telemetry = Ff_support.Telemetry

let source =
  {|
buffer xs : float[4] = { 1.0, 2.0, 3.0, 4.0 };
output buffer ys : float[4] = zeros;

kernel scale(in xs: float[], out ys: float[]) {
  for i in 0..4 {
    ys[i] = xs[i] * 2.0;
  }
}

schedule {
  call scale(xs, ys);
}
|}

let quick_query =
  {
    Protocol.default_query with
    Protocol.q_bits = [ 2; 40; 63 ];
    q_samples = 30;
  }

(* --- pure codecs ---------------------------------------------------------- *)

let roundtrip_request req =
  match Protocol.decode_request (Protocol.encode_request req) with
  | Ok req' -> Alcotest.(check bool) "request survives" true (req = req')
  | Error msg -> Alcotest.failf "request did not decode: %s" msg

let roundtrip_response resp =
  match Protocol.decode_response (Protocol.encode_response resp) with
  | Ok resp' -> Alcotest.(check bool) "response survives" true (resp = resp')
  | Error msg -> Alcotest.failf "response did not decode: %s" msg

let test_codec_roundtrips () =
  List.iter roundtrip_request
    [
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Shutdown;
      Protocol.Analyze { source; query = Protocol.default_query };
      Protocol.Analyze
        {
          source = "";
          query =
            {
              Protocol.q_target = 0.0;
              q_bits = [ 0; 63 ];
              q_samples = 0;
              q_epsilon = 1e-9;
              q_prove = false;
              q_model = Ff_inject.Fault_model.Skip;
            };
        };
    ];
  List.iter roundtrip_response
    [
      Protocol.Pong;
      Protocol.Bye;
      Protocol.Report "";
      Protocol.Report (String.make 4096 'x');
      Protocol.Stats_json "{}";
      Protocol.Error "compile failed";
    ]

let expect_decode_error what = function
  | Ok _ -> Alcotest.failf "%s unexpectedly decoded" what
  | Error _ -> ()

let test_codec_rejects () =
  expect_decode_error "empty payload" (Protocol.decode_request "");
  expect_decode_error "unknown tag" (Protocol.decode_request "\xff\xff\xff\xff");
  expect_decode_error "trailing bytes"
    (Protocol.decode_request (Protocol.encode_request Protocol.Ping ^ "z"));
  expect_decode_error "truncated analyze"
    (Protocol.decode_request
       (let full = Protocol.encode_request (Protocol.Analyze { source; query = quick_query }) in
        String.sub full 0 (String.length full - 3)));
  expect_decode_error "empty payload" (Protocol.decode_response "");
  expect_decode_error "trailing bytes"
    (Protocol.decode_response (Protocol.encode_response Protocol.Bye ^ "z"))

(* --- frame transport fuzz ------------------------------------------------- *)

(* Feed exactly [bytes] to recv_frame through a pipe (write end closed, so
   the reader sees a clean EOF after the last byte). *)
let recv_of bytes =
  let r, w = Unix.pipe () in
  let n = Unix.write_substring w bytes 0 (String.length bytes) in
  Alcotest.(check int) "wrote the whole fuzz input" (String.length bytes) n;
  Unix.close w;
  Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> Protocol.recv_frame r)

let check_frame = function
  | Protocol.Frame p -> `Frame p
  | Protocol.Closed -> `Closed
  | Protocol.Malformed _ -> `Malformed

(* A header whose own CRC is valid, so only the declared length can be the
   lie — the reader must reject it before allocating. *)
let crafted_header ~len =
  let add64 b v =
    for i = 0 to 7 do
      Buffer.add_char b
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
    done
  in
  let b = Buffer.create 28 in
  Buffer.add_string b "FRC2";
  add64 b (Int64.of_int len);
  add64 b 0L;
  let head = Buffer.sub b 0 20 in
  add64 b (Int64.of_int (Hashing.crc32 head));
  Buffer.contents b

let test_frame_fuzz () =
  let payload = Protocol.encode_request (Protocol.Analyze { source; query = quick_query }) in
  let framed = Wire.frame payload in
  (* The well-formed frame decodes. *)
  (match recv_of framed with
  | Protocol.Frame p -> Alcotest.(check string) "payload survives framing" payload p
  | Protocol.Closed | Protocol.Malformed _ -> Alcotest.fail "valid frame rejected");
  (* Clean EOF at a frame boundary. *)
  Alcotest.(check bool) "empty stream is Closed" true (check_frame (recv_of "") = `Closed);
  (* Every possible truncation is Malformed — mid-header, mid-payload,
     boundary — and never a crash or a Frame. *)
  for cut = 1 to String.length framed - 1 do
    match check_frame (recv_of (String.sub framed 0 cut)) with
    | `Malformed -> ()
    | `Closed -> Alcotest.failf "truncation at %d read as clean EOF" cut
    | `Frame _ -> Alcotest.failf "truncation at %d produced a frame" cut
  done;
  (* Garbage where the marker should be. *)
  Alcotest.(check bool) "garbage marker" true
    (check_frame (recv_of (String.make 64 'Z')) = `Malformed);
  (* A flipped payload byte fails the payload CRC. *)
  let corrupt = Bytes.of_string framed in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 1));
  Alcotest.(check bool) "payload corruption" true
    (check_frame (recv_of (Bytes.to_string corrupt)) = `Malformed);
  (* A flipped length byte fails the header CRC before the length is
     trusted. *)
  let bad_len = Bytes.of_string framed in
  Bytes.set bad_len 5 (Char.chr (Char.code (Bytes.get bad_len 5) lxor 0x40));
  Alcotest.(check bool) "header corruption" true
    (check_frame (recv_of (Bytes.to_string bad_len)) = `Malformed);
  (* An oversized length with a *valid* header CRC must be rejected by the
     bound, not attempted: recv_frame returns promptly instead of trying
     to read (or allocate) gigabytes. *)
  Alcotest.(check bool) "oversized length" true
    (check_frame (recv_of (crafted_header ~len:(Protocol.max_payload + 1))) = `Malformed);
  Alcotest.(check bool) "negative length" true
    (check_frame (recv_of (crafted_header ~len:(-1))) = `Malformed)

(* --- in-place response framing --------------------------------------------- *)

(* Run [send] on a thread against one end of a socketpair (large frames
   exceed the socket buffer) and [recv] on the other end. *)
let over_socketpair send recv =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create (fun () -> Fun.protect ~finally:(fun () -> Unix.close a) (fun () -> send a)) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join writer;
      Unix.close b)
    (fun () -> recv b)

(* Fill the first [len] bytes of [buf] from [fd]. *)
let read_into fd buf len =
  let rec go pos =
    if pos < len then
      match Unix.read fd buf pos (len - pos) with
      | 0 -> Alcotest.failf "EOF after %d of %d bytes" pos len
      | n -> go (pos + n)
  in
  go 0

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ()

let response_gen =
  QCheck.Gen.(
    let text =
      frequency
        [
          (4, string_size (int_range 0 300));
          (1, string_size (int_range 2000 20_000));
          (1, string_size (int_range 65_536 70_000));
        ]
    in
    frequency
      [
        (1, return Protocol.Pong);
        (1, return Protocol.Bye);
        (4, map (fun t -> Protocol.Report t) text);
        (1, map (fun t -> Protocol.Stats_json t) text);
        (1, map (fun t -> Protocol.Error t) text);
      ])

let print_response r =
  let tag, len =
    match r with
    | Protocol.Pong -> ("Pong", 0)
    | Protocol.Bye -> ("Bye", 0)
    | Protocol.Report t -> ("Report", String.length t)
    | Protocol.Stats_json t -> ("Stats_json", String.length t)
    | Protocol.Error t -> ("Error", String.length t)
  in
  Printf.sprintf "%s (%d bytes)" tag len

(* Each response is sent twice: the first frame is compared byte for
   byte with the built frame, the second must decode back to it. *)
let send_response_property =
  QCheck.Test.make ~count:60 ~name:"send_response writes Wire.frame (encode_response r)"
    (QCheck.make ~print:print_response response_gen)
    (fun resp ->
      let expected = Wire.frame (Protocol.encode_response resp) in
      over_socketpair
        (fun fd ->
          Protocol.send_response fd resp;
          Protocol.send_response fd resp)
        (fun fd ->
          let first = Bytes.create (String.length expected) in
          read_into fd first (Bytes.length first);
          let second = Protocol.recv_response fd in
          String.equal expected (Bytes.to_string first)
          && second = Ok resp
          && String.equal (read_all fd) ""))

let test_send_response_edges () =
  List.iter
    (fun resp ->
      let framed =
        over_socketpair (fun fd -> Protocol.send_response fd resp) read_all
      in
      Alcotest.(check string) (print_response resp)
        (Wire.frame (Protocol.encode_response resp)) framed)
    [
      Protocol.Report "";
      Protocol.Report (String.init 200_000 (fun i -> Char.chr (i land 0xFF)));
      Protocol.Pong;
    ]

(* --- live daemon: a hostile client never corrupts warm state -------------- *)

let temp_socket () =
  let path = Filename.temp_file "ff_serve_test" ".sock" in
  Sys.remove path;
  path

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

(* Run [f socket] against a daemon on a fresh socket, then shut it down
   and check that it acknowledged and removed its socket. *)
let with_server f =
  let socket = temp_socket () in
  let server = Thread.create (fun () -> Ff_serve.Server.run ~socket ()) () in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists socket) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "daemon came up" true (Sys.file_exists socket);
  f socket;
  (match Ff_serve.Client.request ~socket Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok _ | Error _ -> Alcotest.fail "shutdown was not acknowledged");
  Thread.join server;
  Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists socket)

let test_server_survives_garbage () =
  with_server @@ fun socket ->
  (* Prime the warm cache with a good request. *)
  let req = Protocol.Analyze { source; query = quick_query } in
  let first =
    match Ff_serve.Client.request ~socket req with
    | Ok (Protocol.Report text) -> text
    | Ok _ -> Alcotest.fail "expected a report"
    | Error msg -> Alcotest.failf "first request failed: %s" msg
  in
  (* A connection that speaks garbage gets an error and is dropped. *)
  let fd = connect socket in
  let garbage = String.make 64 '!' in
  ignore (Unix.write_substring fd garbage 0 (String.length garbage));
  (match Protocol.recv_response fd with
  | Ok (Protocol.Error _) -> ()
  | Ok _ -> Alcotest.fail "garbage earned a non-error response"
  | Error `Closed -> ()
  | Error (`Malformed msg) -> Alcotest.failf "daemon answered garbage with garbage: %s" msg);
  (match Protocol.recv_response fd with
  | Error `Closed -> ()
  | Ok _ | Error (`Malformed _) ->
    Alcotest.fail "daemon kept talking to a hostile connection");
  Unix.close fd;
  (* A truncated frame (valid header, missing payload) is also contained. *)
  let fd = connect socket in
  let framed = Wire.frame (Protocol.encode_request Protocol.Ping) in
  ignore (Unix.write_substring fd framed 0 (String.length framed - 2));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match Protocol.recv_response fd with
  | Ok (Protocol.Error _) | Error `Closed -> ()
  | Ok _ -> Alcotest.fail "truncated frame earned a non-error response"
  | Error (`Malformed msg) -> Alcotest.failf "daemon mangled its error reply: %s" msg);
  Unix.close fd;
  (* The daemon is still healthy and its warm state intact: the same
     request comes back byte-identical. *)
  (match Ff_serve.Client.request ~socket req with
  | Ok (Protocol.Report text) ->
    Alcotest.(check string) "warm state survived the hostile client" first text
  | Ok _ -> Alcotest.fail "expected a report"
  | Error msg -> Alcotest.failf "post-garbage request failed: %s" msg)

(* Invalid analysis options get the CLI's one-line message back as an
   [Error], and the daemon keeps serving. *)
let test_server_refuses_invalid_options () =
  with_server @@ fun socket ->
  List.iter
    (fun (option, query) ->
      match
        Ff_serve.Client.request ~socket (Protocol.Analyze { source; query })
      with
      | Ok (Protocol.Error msg) ->
        let prefix = "--" ^ option ^ ": " in
        if not (String.starts_with ~prefix msg) then
          Alcotest.failf "--%s refused without naming it: %s" option msg
      | Ok _ -> Alcotest.failf "an invalid --%s was analyzed" option
      | Error msg -> Alcotest.failf "daemon dropped an invalid --%s: %s" option msg)
    [
      ("bits", { quick_query with Protocol.q_bits = [ -1 ] });
      ("bits", { quick_query with Protocol.q_bits = [ 64 ] });
      ("bits", { quick_query with Protocol.q_bits = [ 1; 1 ] });
      ("epsilon", { quick_query with Protocol.q_epsilon = Float.nan });
      ("epsilon", { quick_query with Protocol.q_epsilon = Float.infinity });
      ("epsilon", { quick_query with Protocol.q_epsilon = -1.0 });
      ("samples", { quick_query with Protocol.q_samples = -5 });
    ];
  match
    Ff_serve.Client.request ~socket (Protocol.Analyze { source; query = quick_query })
  with
  | Ok (Protocol.Report _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "a valid query failed after the refusals"

(* --- warm cache and fast path --------------------------------------------- *)

let c_injections = Telemetry.counter "campaign.injections"
let c_pipeline_runs = Telemetry.counter "pipeline.runs"
let c_warm_hits = Telemetry.counter "serve.warm_hits"
let c_fast_path = Telemetry.counter "serve.fast_path"
let c_slow_path = Telemetry.counter "serve.slow_path"

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    f

let report_of engine req =
  match Engine.handle engine req with
  | Protocol.Report text -> text
  | Protocol.Error msg -> Alcotest.failf "analyze failed: %s" msg
  | _ -> Alcotest.fail "expected a report"

let test_warm_cache_runs_nothing () =
  with_telemetry @@ fun () ->
  let engine = Engine.create () in
  let req = Protocol.Analyze { source; query = quick_query } in
  let first = report_of engine req in
  let injections = Telemetry.value c_injections in
  let runs = Telemetry.value c_pipeline_runs in
  Alcotest.(check bool) "cold request injected" true (injections > 0);
  Alcotest.(check int) "one pipeline run" 1 runs;
  let second = report_of engine req in
  Alcotest.(check string) "warm response byte-identical" first second;
  Alcotest.(check int) "served from the warm cache" 1 (Telemetry.value c_warm_hits);
  Alcotest.(check int) "zero new injections" injections (Telemetry.value c_injections);
  Alcotest.(check int) "zero new pipeline runs" runs (Telemetry.value c_pipeline_runs)

let test_fast_path_skips_injections () =
  with_telemetry @@ fun () ->
  (* Capacity 0: nothing stays warm, so a repeat request must come from
     the store — exercising the admission probe's fast path. *)
  let engine = Engine.create ~cache_capacity:0 () in
  let req = Protocol.Analyze { source; query = quick_query } in
  let first = report_of engine req in
  Alcotest.(check int) "cold request took the slow lane" 1 (Telemetry.value c_slow_path);
  let injections = Telemetry.value c_injections in
  let second = report_of engine req in
  (* The reuse accounting honestly differs (0/1 cold vs 1/1 from the
     store — the one-shot CLI against a persistent store prints the
     same), but the analysis itself must not. *)
  let analysis_part report =
    match String.index_opt report '\n' with
    | Some i -> String.sub report (i + 1) (String.length report - i - 1)
    | None -> report
  in
  Alcotest.(check bool) "cold request reused nothing" true
    (String.length first >= 38
    && String.equal (String.sub first 0 38) "sections reused from the store: 0/1\nin");
  Alcotest.(check bool) "repeat served from the store" true
    (String.length second >= 38
    && String.equal (String.sub second 0 38) "sections reused from the store: 1/1\nin");
  Alcotest.(check string) "analysis byte-identical past the reuse header"
    (analysis_part (analysis_part first))
    (analysis_part (analysis_part second));
  Alcotest.(check int) "repeat took the fast path" 1 (Telemetry.value c_fast_path);
  Alcotest.(check int) "zero new injections" injections (Telemetry.value c_injections);
  Alcotest.(check int) "both requests ran the pipeline" 2
    (Telemetry.value c_pipeline_runs)

(* --- warm hits: no compile, memoized reports, nothing lasting --------------- *)

(* [source] behind a comment long enough that a request is several KiB:
   every block over 2 KiB goes straight to the major heap, so a warm hit
   that copied the request or its source would show below. *)
let padded_source = String.make 6000 '/' ^ "\n" ^ source

let c_cold = Telemetry.counter "serve.cold"

let test_one_byte_misses () =
  with_telemetry @@ fun () ->
  let engine = Engine.create () in
  let req source = Protocol.Analyze { source; query = quick_query } in
  let first = report_of engine (req padded_source) in
  (* Flip one byte of the comment: the same program, a different text. *)
  let edited = Bytes.of_string padded_source in
  Bytes.set edited 100 'x';
  let second = report_of engine (req (Bytes.to_string edited)) in
  Alcotest.(check int) "no warm hit" 0 (Telemetry.value c_warm_hits);
  Alcotest.(check int) "both requests missed" 2 (Telemetry.value c_cold);
  Alcotest.(check int) "two entries" 2 (Engine.cache_size engine);
  (* The second miss found the program's section in the store. *)
  let reuse report = List.hd (String.split_on_char '\n' report) in
  Alcotest.(check string) "first analysed" "sections reused from the store: 0/1" (reuse first);
  Alcotest.(check string) "second from the store" "sections reused from the store: 1/1"
    (reuse second)

let test_bad_source_not_cached () =
  let engine = Engine.create () in
  ignore (report_of engine (Protocol.Analyze { source; query = quick_query }));
  let bad = "kernel broken(" in
  let expected =
    match Ff_lang.Frontend.compile bad with
    | Ok _ -> Alcotest.fail "bad source compiled"
    | Error e -> Format.asprintf "%a" Ff_lang.Frontend.pp_error e
  in
  let reply () =
    Protocol.encode_response
      (Engine.handle engine (Protocol.Analyze { source = bad; query = quick_query }))
  in
  let first = reply () in
  Alcotest.(check string) "the compile error, as the CLI renders it"
    (Protocol.encode_response (Protocol.Error expected)) first;
  Alcotest.(check string) "same error bytes again" first (reply ());
  Alcotest.(check int) "cache holds only the good entry" 1 (Engine.cache_size engine)

let test_report_memo_bound () =
  let config =
    Engine.config_of ~bits:quick_query.Protocol.q_bits
      ~samples:quick_query.Protocol.q_samples ~epsilon:0.0 ~prove:true ()
  in
  let analysis = Fastflip.Pipeline.analyze config (Ff_lang.Frontend.compile_exn source) in
  let cache = Cache.create () in
  let entry =
    match Cache.find_or_compute cache ~key:1L ~compute:(fun () -> analysis) with
    | Ok entry, Cache.Miss -> entry
    | _ -> Alcotest.fail "expected a fresh entry"
  in
  for round = 1 to 2 do
    for i = 0 to 99 do
      let target = float_of_int i /. 99.0 in
      Alcotest.(check string)
        (Printf.sprintf "round %d, target %d: the rendered report" round i)
        (Ff_serve.Report.analysis ~target analysis)
        (Cache.report entry ~target);
      Alcotest.(check bool) "memo within its bound" true
        (Cache.reports_held entry <= Cache.report_capacity)
    done
  done;
  Alcotest.(check int) "memo full" Cache.report_capacity (Cache.reports_held entry);
  (* 0.0 and -0.0 render differently ("0.00" vs "-0.00"): keyed by bits. *)
  Alcotest.(check string) "-0.0 is its own target"
    (Ff_serve.Report.analysis ~target:(-0.0) analysis)
    (Cache.report entry ~target:(-0.0))

(* A warm entry keeps the report basis, not the analysis: once the
   caller drops the analysis, its golden run is collectable, and every
   report still comes out byte for byte, also for a target first
   rendered after the collection. *)
let test_entry_does_not_pin_analysis () =
  let config =
    Engine.config_of ~bits:quick_query.Protocol.q_bits
      ~samples:quick_query.Protocol.q_samples ~epsilon:0.0 ~prove:true ()
  in
  let targets = [ 0.9; 0.95; 0.99; -0.0; 1.0; 1e300 ] in
  let golden = Weak.create 1 in
  let cache = Cache.create () in
  (* The analysis is reachable only from this function's frame. *)
  let cache_fresh_analysis () =
    let analysis =
      Fastflip.Pipeline.analyze config (Ff_lang.Frontend.compile_exn source)
    in
    let report target = (target, Ff_serve.Report.analysis ~target analysis) in
    let expected = List.map report targets in
    let late = report 0.5 in
    Weak.set golden 0 (Some analysis.Fastflip.Pipeline.golden);
    match Cache.find_or_compute cache ~key:1L ~compute:(fun () -> analysis) with
    | Ok entry, Cache.Miss -> (late :: expected, entry)
    | _ -> Alcotest.fail "expected a fresh entry"
  in
  let expected, entry = cache_fresh_analysis () in
  List.iter (fun target -> ignore (Cache.report entry ~target)) targets;
  Gc.full_major ();
  Alcotest.(check bool) "the golden run was collected" false (Weak.check golden 0);
  List.iter
    (fun (target, text) ->
      Alcotest.(check string) (Printf.sprintf "report at %h" target) text
        (Cache.report entry ~target))
    expected

(* Requests 500 warm hits from the server's connection loop over a
   socketpair. The client side writes pre-built frames and reads into
   one buffer, so any major-heap words are the server's. *)
let test_warm_hits_allocate_nothing_major () =
  let engine = Engine.create () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server =
    Thread.create
      (fun () -> Ff_serve.Server.handle_connection engine ~shutdown:(Atomic.make false) a)
      ()
  in
  let frames =
    Array.map
      (fun target ->
        Wire.frame
          (Protocol.encode_request
             (Protocol.Analyze
                { source = padded_source; query = { quick_query with Protocol.q_target = target } })))
      [| 0.5; 0.9; 1.0 |]
  in
  let send frame = ignore (Unix.write_substring b frame 0 (String.length frame)) in
  (* Warm-up: the miss, then one render per target. *)
  let expected =
    Array.map
      (fun frame ->
        send frame;
        match Protocol.recv_response b with
        | Ok (Protocol.Report _ as resp) -> Wire.frame (Protocol.encode_response resp)
        | _ -> Alcotest.fail "warm-up request failed")
      frames
  in
  let buf = Bytes.create (Array.fold_left (fun m e -> max m (String.length e)) 0 expected) in
  let mismatches = ref 0 in
  (* Empty the minor heap at both ends, so the warm-up's survivors are
     promoted before the window and the window's own inside it. The
     statistics are sampled at the start of a minor collection, so the
     second one makes them count the first's promotions. *)
  let major_words () =
    Gc.minor ();
    Gc.minor ();
    (Gc.quick_stat ()).Gc.major_words
  in
  let before = major_words () in
  for i = 1 to 500 do
    let k = i mod Array.length frames in
    send frames.(k);
    let want = expected.(k) in
    let len = String.length want in
    read_into b buf len;
    for j = 0 to len - 1 do
      if Bytes.unsafe_get buf j <> String.unsafe_get want j then incr mismatches
    done
  done;
  let major_words = major_words () -. before in
  send (Wire.frame (Protocol.encode_request Protocol.Shutdown));
  ignore (Protocol.recv_response b);
  Thread.join server;
  Unix.close b;
  Alcotest.(check int) "every warm response byte-identical" 0 !mismatches;
  (* Measured: under 40 words here; the connection loop that compiled,
     rendered and copied per request allocated ~1.07M. *)
  if major_words >= 1024.0 then
    Alcotest.failf "500 warm hits allocated %.0f major-heap words (bound 1024)"
      major_words

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "codec roundtrips" `Quick test_codec_roundtrips;
          Alcotest.test_case "codec rejects bad payloads" `Quick test_codec_rejects;
          Alcotest.test_case "frame fuzz" `Quick test_frame_fuzz;
          QCheck_alcotest.to_alcotest send_response_property;
          Alcotest.test_case "send_response edge sizes" `Quick test_send_response_edges;
        ] );
      ( "server",
        [
          Alcotest.test_case "survives a hostile client" `Quick
            test_server_survives_garbage;
          Alcotest.test_case "refuses invalid options" `Quick
            test_server_refuses_invalid_options;
        ] );
      ( "engine",
        [
          Alcotest.test_case "warm cache runs nothing" `Quick
            test_warm_cache_runs_nothing;
          Alcotest.test_case "fast path skips injections" `Quick
            test_fast_path_skips_injections;
          Alcotest.test_case "one changed byte misses" `Quick test_one_byte_misses;
          Alcotest.test_case "bad source is not cached" `Quick test_bad_source_not_cached;
          Alcotest.test_case "report memo stays bounded" `Quick test_report_memo_bound;
          Alcotest.test_case "an entry does not pin its analysis" `Quick
            test_entry_does_not_pin_analysis;
          Alcotest.test_case "warm hits allocate nothing major" `Quick
            test_warm_hits_allocate_nothing_major;
        ] );
    ]
