let truthy = function
  | "1" | "true" | "yes" | "on" -> true
  | _ -> false

let enabled_cell =
  Atomic.make
    (match Sys.getenv_opt "FF_TELEMETRY" with
    | Some v -> truthy v
    | None -> false)

let enabled () = Atomic.get enabled_cell
let set_enabled v = Atomic.set enabled_cell v

(* gettimeofday stands in for a monotonic clock: the stdlib exposes no
   monotonic source and the no-new-dependencies rule forbids mtime. All
   durations derived from it live in the volatile (timings) section. *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Interning happens at module initialization, never on the hot path, so
   one registry mutex covers counters and histograms. *)
let registry_mu = Mutex.create ()

type counter = {
  c_volatile : bool;
  c_cell : int Atomic.t;
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter ?(volatile = false) name =
  Mutex.lock registry_mu;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { c_volatile = volatile; c_cell = Atomic.make 0 } in
      Hashtbl.add counters name c;
      c
  in
  Mutex.unlock registry_mu;
  c

let add c n = if Atomic.get enabled_cell then ignore (Atomic.fetch_and_add c.c_cell n)
let incr c = add c 1
let value c = Atomic.get c.c_cell

type histogram = {
  h_volatile : bool;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_buckets : int Atomic.t array;  (* bucket i holds values of bit-width i *)
}

let hist_buckets = 64

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram ?(volatile = false) name =
  Mutex.lock registry_mu;
  let h =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
      let h =
        {
          h_volatile = volatile;
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_buckets = Array.init hist_buckets (fun _ -> Atomic.make 0);
        }
      in
      Hashtbl.add histograms name h;
      h
  in
  Mutex.unlock registry_mu;
  h

let bucket_index v =
  if v <= 0 then 0
  else begin
    let i = ref 0 in
    let b = ref v in
    while !b <> 0 do
      b := !b lsr 1;
      Stdlib.incr i
    done;
    min !i (hist_buckets - 1)
  end

let observe h v =
  if Atomic.get enabled_cell then begin
    ignore (Atomic.fetch_and_add h.h_count 1);
    ignore (Atomic.fetch_and_add h.h_sum v);
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index v) 1)
  end

let timed h f =
  if not (Atomic.get enabled_cell) then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> observe h ((now_ns () - t0) / 1000)) f
  end

(* --- spans --------------------------------------------------------------- *)

type span_agg = {
  mutable sp_n : int;
  mutable sp_ns : int;
  mutable sp_max : int;
}

let spans : (string, span_agg) Hashtbl.t = Hashtbl.create 32
let span_mu = Mutex.create ()

let path_key = Domain.DLS.new_key (fun () -> "")

let current_path () = Domain.DLS.get path_key

let with_path path f =
  let old = Domain.DLS.get path_key in
  Domain.DLS.set path_key path;
  Fun.protect ~finally:(fun () -> Domain.DLS.set path_key old) f

let record_span path ns =
  Mutex.lock span_mu;
  (match Hashtbl.find_opt spans path with
  | Some agg ->
    agg.sp_n <- agg.sp_n + 1;
    agg.sp_ns <- agg.sp_ns + ns;
    if ns > agg.sp_max then agg.sp_max <- ns
  | None -> Hashtbl.add spans path { sp_n = 1; sp_ns = ns; sp_max = ns });
  Mutex.unlock span_mu

let span ?(attrs = []) name f =
  if not (Atomic.get enabled_cell) then f ()
  else begin
    let name =
      match attrs with
      | [] -> name
      | attrs ->
        let attrs = List.sort (fun (a, _) (b, _) -> compare a b) attrs in
        Printf.sprintf "%s{%s}" name
          (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))
    in
    let parent = current_path () in
    let path = if parent = "" then name else parent ^ "/" ^ name in
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () -> record_span path (now_ns () - t0))
      (fun () -> with_path path f)
  end

let reset () =
  Mutex.lock registry_mu;
  Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) counters;
  Hashtbl.iter
    (fun _ h ->
      Atomic.set h.h_count 0;
      Atomic.set h.h_sum 0;
      Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
    histograms;
  Mutex.unlock registry_mu;
  Mutex.lock span_mu;
  Hashtbl.reset spans;
  Mutex.unlock span_mu

(* --- progress ------------------------------------------------------------ *)

type progress = {
  p_label : string;
  p_total : int;
  p_done : int Atomic.t;
  p_start : int;
  p_active : bool;
  p_mu : Mutex.t;
  mutable p_last : int;      (* last print, ns *)
  mutable p_printed : bool;
}

let progress_active () =
  match Sys.getenv_opt "FF_PROGRESS" with
  | Some v -> truthy v
  | None -> (
    enabled ()
    && match Unix.isatty Unix.stderr with b -> b | exception Unix.Unix_error _ -> false)

let progress ~label ~total =
  {
    p_label = label;
    p_total = total;
    p_done = Atomic.make 0;
    p_start = now_ns ();
    p_active = progress_active () && total > 0;
    p_mu = Mutex.create ();
    p_last = 0;
    p_printed = false;
  }

let render p done_ =
  let elapsed = float_of_int (now_ns () - p.p_start) /. 1e9 in
  let eta =
    if done_ > 0 then elapsed *. float_of_int (p.p_total - done_) /. float_of_int done_
    else 0.0
  in
  Printf.eprintf "\r[%s] %d/%d (%.0f%%) elapsed %.1fs ETA %.1fs%!" p.p_label done_
    p.p_total
    (100.0 *. float_of_int done_ /. float_of_int p.p_total)
    elapsed eta

let step p =
  let done_ = 1 + Atomic.fetch_and_add p.p_done 1 in
  (* Printing is best-effort: a contended try_lock skips the update
     rather than stalling a worker domain. *)
  if p.p_active && Mutex.try_lock p.p_mu then begin
    let t = now_ns () in
    if done_ >= p.p_total || t - p.p_last > 100_000_000 then begin
      p.p_last <- t;
      p.p_printed <- true;
      render p done_
    end;
    Mutex.unlock p.p_mu
  end

let completed p = Atomic.get p.p_done

let finish p = if p.p_active && p.p_printed then Printf.eprintf "\n%!"

(* --- snapshot and export ------------------------------------------------- *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : int;
  hs_buckets : (int * int) list;
}

type span_snapshot = {
  sp_count : int;
  sp_total_ns : int;
  sp_max_ns : int;
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_volatile : (string * int) list;
  snap_histograms : (string * hist_snapshot) list;
  snap_volatile_histograms : (string * hist_snapshot) list;
  snap_spans : (string * span_snapshot) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot () =
  Mutex.lock registry_mu;
  let stable, volatile =
    Hashtbl.fold
      (fun name c (stable, volatile) ->
        let entry = (name, Atomic.get c.c_cell) in
        if c.c_volatile then (stable, entry :: volatile) else (entry :: stable, volatile))
      counters ([], [])
  in
  let hists, volatile_hists =
    Hashtbl.fold
      (fun name h (stable, volatile) ->
        let buckets = ref [] in
        for i = hist_buckets - 1 downto 0 do
          let n = Atomic.get h.h_buckets.(i) in
          if n > 0 then
            (* Bucket i holds values of bit-width i: upper bound 2^i - 1. *)
            buckets := ((1 lsl i) - 1, n) :: !buckets
        done;
        let entry =
          ( name,
            {
              hs_count = Atomic.get h.h_count;
              hs_sum = Atomic.get h.h_sum;
              hs_buckets = !buckets;
            } )
        in
        if h.h_volatile then (stable, entry :: volatile)
        else (entry :: stable, volatile))
      histograms ([], [])
  in
  Mutex.unlock registry_mu;
  Mutex.lock span_mu;
  let spans =
    Hashtbl.fold
      (fun path agg acc ->
        (path, { sp_count = agg.sp_n; sp_total_ns = agg.sp_ns; sp_max_ns = agg.sp_max })
        :: acc)
      spans []
  in
  Mutex.unlock span_mu;
  {
    snap_counters = List.sort by_name stable;
    snap_volatile = List.sort by_name volatile;
    snap_histograms = List.sort by_name hists;
    snap_volatile_histograms = List.sort by_name volatile_hists;
    snap_spans = List.sort by_name spans;
  }

(* [obj] renders a sorted association list as a JSON object; every value
   printer is deterministic, so the whole document is. *)
let obj buf ~indent entries value =
  let pad = String.make indent ' ' in
  if entries = [] then Buffer.add_string buf "{}"
  else begin
    Buffer.add_string buf "{";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        Buffer.add_string buf pad;
        Buffer.add_string buf "  ";
        Json.add_string buf name;
        Buffer.add_string buf ": ";
        value v)
      entries;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_string buf "}"
  end

let to_json ?(timings = true) snap =
  let buf = Buffer.create 4096 in
  let int v = Buffer.add_string buf (string_of_int v) in
  let hist h =
    Buffer.add_string buf "{ \"count\": ";
    int h.hs_count;
    Buffer.add_string buf ", \"sum\": ";
    int h.hs_sum;
    Buffer.add_string buf ", \"buckets\": [";
    List.iteri
      (fun i (bound, n) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf "[";
        int bound;
        Buffer.add_string buf ", ";
        int n;
        Buffer.add_string buf "]")
      h.hs_buckets;
    Buffer.add_string buf "] }"
  in
  Buffer.add_string buf "{\n  \"counters\": ";
  obj buf ~indent:2 snap.snap_counters int;
  Buffer.add_string buf ",\n  \"histograms\": ";
  obj buf ~indent:2 snap.snap_histograms hist;
  Buffer.add_string buf ",\n  \"spans\": ";
  obj buf ~indent:2 snap.snap_spans (fun s -> int s.sp_count);
  if timings then begin
    Buffer.add_string buf ",\n  \"timings\": {\n    \"counters\": ";
    obj buf ~indent:4 snap.snap_volatile int;
    Buffer.add_string buf ",\n    \"histograms\": ";
    obj buf ~indent:4 snap.snap_volatile_histograms hist;
    Buffer.add_string buf ",\n    \"spans\": ";
    obj buf ~indent:4 snap.snap_spans (fun s ->
        Buffer.add_string buf "{ \"total_ns\": ";
        int s.sp_total_ns;
        Buffer.add_string buf ", \"max_ns\": ";
        int s.sp_max_ns;
        Buffer.add_string buf " }");
    Buffer.add_string buf "\n  }"
  end;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write ?timings ~path () =
  let json = to_json ?timings (snapshot ()) in
  let oc = open_out path in
  output_string oc json;
  close_out oc
