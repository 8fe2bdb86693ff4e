module Pipeline = Fastflip.Pipeline
module Store = Fastflip.Store
module Persist = Fastflip.Persist
module Campaign = Ff_inject.Campaign
module Site = Ff_inject.Site
module Pool = Ff_support.Pool
module Hashing = Ff_support.Hashing
module Telemetry = Ff_support.Telemetry

let m_requests = Telemetry.counter "serve.requests"
let m_errors = Telemetry.counter "serve.errors"
let m_warm_hits = Telemetry.counter "serve.warm_hits"
let m_coalesced = Telemetry.counter "serve.coalesced"
let m_cold = Telemetry.counter "serve.cold"
let m_fast_path = Telemetry.counter "serve.fast_path"
let m_slow_path = Telemetry.counter "serve.slow_path"
let m_latency = Telemetry.histogram ~volatile:true "serve.latency_us"
let m_warm_latency = Telemetry.histogram ~volatile:true "serve.warm_latency_us"

let config_of ?(model = Ff_inject.Fault_model.default) ?safety_factor ~bits
    ~samples ~epsilon ~prove () =
  let bit_list =
    match bits with
    | [] -> Site.default_bits
    | bits -> Site.Bit_list bits
  in
  let prove =
    if prove then Ff_inject.Prover.default_policy else Ff_inject.Prover.off
  in
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = bit_list; model; prove };
    sensitivity_samples = samples;
    safety_factor =
      Option.value ~default:Pipeline.default_config.Pipeline.safety_factor
        safety_factor;
    epsilon;
  }

let check_options ~bits ~samples ~epsilon =
  let rec check_bits = function
    | [] -> Ok ()
    | b :: _ when b < 0 || b > 63 ->
      Error (Printf.sprintf "--bits: bit %d is outside [0, 63]" b)
    | b :: rest when List.mem b rest ->
      Error (Printf.sprintf "--bits: bit %d is repeated" b)
    | _ :: rest -> check_bits rest
  in
  if not (Float.is_finite epsilon && epsilon >= 0.0) then
    Error (Printf.sprintf "--epsilon: %g is not a finite number >= 0" epsilon)
  else if samples < 0 then Error (Printf.sprintf "--samples: %d is negative" samples)
  else check_bits bits

let check_query (q : Protocol.query) =
  check_options ~bits:q.Protocol.q_bits ~samples:q.Protocol.q_samples
    ~epsilon:q.Protocol.q_epsilon

let config_of_query (q : Protocol.query) =
  config_of ~model:q.Protocol.q_model ~bits:q.Protocol.q_bits
    ~samples:q.Protocol.q_samples ~epsilon:q.Protocol.q_epsilon
    ~prove:q.Protocol.q_prove ()

(* The warm-state key: program text plus the full analysis configuration
   (the knapsack target is deliberately excluded — selection at any
   target reuses the same cached analysis). Hashed in place, so a warm
   hit never copies or compiles the source. *)
let cache_key (source : Protocol.view) config =
  let h = Hashing.create () in
  Hashing.add_substring h source.Protocol.data source.Protocol.pos source.Protocol.len;
  Hashing.add_int64 h (Pipeline.config_hash config);
  Hashing.value h

type t = {
  cache : Cache.t;
  e_store : Store.t;
  store_mu : Mutex.t;  (* held per lookup/insert, never across a campaign *)
  lane_mu : Mutex.t;   (* the slow lane: injection-bound requests only *)
  pool : Pool.t;
}

let create ?(cache_capacity = 32) ?(store = Store.create ()) ?(pool = Pool.serial)
    () =
  {
    cache = Cache.create ~capacity:cache_capacity ();
    e_store = store;
    store_mu = Mutex.create ();
    lane_mu = Mutex.create ();
    pool;
  }

let cache_size t = Cache.size t.cache

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let backing t =
  {
    Pipeline.lookup = (fun key -> locked t.store_mu (fun () -> Store.find t.e_store key));
    publish = (fun record -> locked t.store_mu (fun () -> Store.add t.e_store record));
  }

(* Persist the shared store under the store lock: the save snapshots the
   dirty set and the table, which request threads mutate through
   [backing], so the lock makes the snapshot consistent. Incremental v3
   saves are O(dirty), so the pause requests can observe is proportional
   to what changed since the last save, not to the store. *)
let save t ~path = locked t.store_mu (fun () -> Persist.save t.e_store ~path)

(* The one Analyze path, for the socket and for [handle] alike. Only a
   miss copies the source out of its view and compiles it; a compile
   error raises inside [compute], which the cache never stores, so the
   next request gets the same error. *)
let analyze t (source : Protocol.view) (query : Protocol.query) =
  let t0 = Telemetry.now_ns () in
  let config = config_of_query query in
  let compute () =
    let program =
      match Ff_lang.Frontend.compile (Protocol.string_of_view source) with
      | Ok program -> program
      | Error e -> failwith (Format.asprintf "%a" Ff_lang.Frontend.pp_error e)
    in
    (* Admission control: derive the replay-free state, then classify
       the request before it may touch the campaign lane. *)
    let prepared = Pipeline.prepare config program in
    let covered =
      locked t.store_mu (fun () ->
          Array.for_all
            (fun k -> Store.peek t.e_store k <> None)
            prepared.Pipeline.p_keys)
    in
    if covered then begin
      (* Pure store-lookup + knapsack: stays on this thread, never
         queues behind an injection-bound request. *)
      Telemetry.incr m_fast_path;
      Pipeline.analyze_prepared ~backing:(backing t) config prepared
    end
    else begin
      Telemetry.incr m_slow_path;
      locked t.lane_mu (fun () ->
          Pipeline.analyze_prepared ~backing:(backing t) ~pool:t.pool config
            prepared)
    end
  in
  match Cache.find_or_compute t.cache ~key:(cache_key source config) ~compute with
  | Ok entry, outcome ->
    let report = Cache.report entry ~target:query.Protocol.q_target in
    (match outcome with
    | Cache.Hit ->
      Telemetry.incr m_warm_hits;
      Telemetry.observe m_warm_latency ((Telemetry.now_ns () - t0) / 1000)
    | Cache.Coalesced -> Telemetry.incr m_coalesced
    | Cache.Miss -> Telemetry.incr m_cold);
    Ok report
  | Error (Failure msg), _ -> Error msg
  | Error e, _ -> Error (Printexc.to_string e)

let handle_view t (req : Protocol.view Protocol.message) : Protocol.response =
  Telemetry.incr m_requests;
  Telemetry.timed m_latency (fun () ->
      match req with
      | Protocol.Ping -> Protocol.Pong
      | Protocol.Stats ->
        Protocol.Stats_json (Telemetry.to_json (Telemetry.snapshot ()))
      | Protocol.Shutdown -> Protocol.Bye
      | Protocol.Analyze { source; query } -> (
        match Result.bind (check_query query) (fun () -> analyze t source query) with
        | Ok report -> Protocol.Report report
        | Error msg ->
          Telemetry.incr m_errors;
          Protocol.Error msg))

let handle t req = handle_view t (Protocol.map_source Protocol.view_of_string req)
