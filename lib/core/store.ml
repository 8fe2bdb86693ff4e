module Telemetry = Ff_support.Telemetry

(* Process-wide mirrors of the per-store hit/miss fields: the paper's
   central incremental-reuse metric, exported via --metrics. *)
let m_hits = Telemetry.counter "store.hits"
let m_misses = Telemetry.counter "store.misses"
let m_adds = Telemetry.counter "store.adds"

type key = {
  code_hash : int64;
  input_hash : int64;
  config_hash : int64;
}

type section_record = {
  rec_key : key;
  rec_campaign : Ff_inject.Campaign.section_result;
  rec_sensitivity : Ff_sensitivity.Sensitivity.t;
  rec_work : int;
}

type t = {
  table : (key, section_record) Hashtbl.t;
  (* Keys added or replaced since the last save: the delta a sharded
     [Persist.save] appends, so a checkpoint costs O(dirty), not
     O(store). [Persist.load] populates the table without touching it. *)
  dirty : (key, unit) Hashtbl.t;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create () =
  {
    table = Hashtbl.create 64;
    dirty = Hashtbl.create 16;
    hit_count = 0;
    miss_count = 0;
  }

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some record ->
    t.hit_count <- t.hit_count + 1;
    Telemetry.incr m_hits;
    Some record
  | None ->
    t.miss_count <- t.miss_count + 1;
    Telemetry.incr m_misses;
    None

let peek t key = Hashtbl.find_opt t.table key

let add t record =
  Telemetry.incr m_adds;
  Hashtbl.replace t.table record.rec_key record;
  Hashtbl.replace t.dirty record.rec_key ()

let add_clean t record = Hashtbl.replace t.table record.rec_key record

let records t = Hashtbl.fold (fun _ record acc -> record :: acc) t.table []

let dirty_records t =
  Hashtbl.fold
    (fun key () acc ->
      match Hashtbl.find_opt t.table key with
      | Some record -> record :: acc
      | None -> acc)
    t.dirty []

let clean t written =
  List.iter
    (fun record ->
      match Hashtbl.find_opt t.table record.rec_key with
      | Some current when current == record -> Hashtbl.remove t.dirty record.rec_key
      | Some _ | None -> ())
    written

let size t = Hashtbl.length t.table

let hits t = t.hit_count

let misses t = t.miss_count
