module Telemetry = Ff_support.Telemetry

let m_entries = Telemetry.counter "serve.cache.entries"
let m_evictions = Telemetry.counter "serve.cache.evictions"

(* The report basis, not the analysis, so the entry does not pin the
   golden run or the valuation's labels. Rendered reports, most recently
   rendered first, keyed by the target's float bits (0.0 and -0.0 render
   differently). Replaced whole by compare-and-set, so a lookup takes no
   lock. *)
type entry = {
  basis : Report.basis;
  reports : (int64 * string) list Atomic.t;
}

let report_capacity = 8

let report entry ~target =
  let bits = Int64.bits_of_float target in
  match List.assoc_opt bits (Atomic.get entry.reports) with
  | Some text -> text
  | None ->
    let text = Report.render entry.basis ~target in
    (* A racing render of the same target made the same bytes; keep one. *)
    let rec publish () =
      let held = Atomic.get entry.reports in
      if (not (List.mem_assoc bits held))
         && not
              (Atomic.compare_and_set entry.reports held
                 (List.filteri (fun i _ -> i < report_capacity) ((bits, text) :: held)))
      then publish ()
    in
    publish ();
    text

let reports_held entry = List.length (Atomic.get entry.reports)

type state =
  | Computing
  | Ready of entry

type slot = {
  mutable state : state;
  mutable last_used : int;  (* LRU tick; only meaningful when Ready *)
}

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  capacity : int;
  table : (int64, slot) Hashtbl.t;
  mutable tick : int;
}

let create ?(capacity = 32) () =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    capacity;
    table = Hashtbl.create 16;
    tick = 0;
  }

let size t =
  Mutex.lock t.mu;
  let n =
    Hashtbl.fold
      (fun _ slot acc -> match slot.state with Ready _ -> acc + 1 | _ -> acc)
      t.table 0
  in
  Mutex.unlock t.mu;
  n

(* Evict the least-recently-used Ready entries down to capacity; called
   with the lock held. Computing slots are pinned. *)
let enforce_capacity t =
  let ready = ref [] in
  Hashtbl.iter
    (fun key slot ->
      match slot.state with
      | Ready _ -> ready := (slot.last_used, key) :: !ready
      | Computing -> ())
    t.table;
  let excess = List.length !ready - t.capacity in
  if excess > 0 then
    List.sort compare !ready
    |> List.filteri (fun i _ -> i < excess)
    |> List.iter (fun (_, key) ->
           Hashtbl.remove t.table key;
           Telemetry.incr m_evictions)

type outcome =
  | Hit
  | Coalesced
  | Miss

let find_or_compute t ~key ~compute =
  Mutex.lock t.mu;
  let rec claim waited =
    match Hashtbl.find_opt t.table key with
    | Some ({ state = Ready entry; _ } as slot) ->
      t.tick <- t.tick + 1;
      slot.last_used <- t.tick;
      Mutex.unlock t.mu;
      (Ok entry, if waited then Coalesced else Hit)
    | Some { state = Computing; _ } ->
      Condition.wait t.cond t.mu;
      claim true
    | None when waited ->
      (* The computation we waited on failed (its slot was removed before
         the broadcast): retry as the new computer rather than reporting
         a stale failure. *)
      compute_here ()
    | None -> compute_here ()
  and compute_here () =
    let slot = { state = Computing; last_used = 0 } in
    Hashtbl.replace t.table key slot;
    Mutex.unlock t.mu;
    let result =
      try Ok { basis = Report.basis (compute ()); reports = Atomic.make [] }
      with e -> Error e
    in
    Mutex.lock t.mu;
    (match result with
    | Ok entry ->
      t.tick <- t.tick + 1;
      slot.state <- Ready entry;
      slot.last_used <- t.tick;
      Telemetry.incr m_entries;
      enforce_capacity t
    | Error _ -> Hashtbl.remove t.table key);
    Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    (result, Miss)
  in
  claim false
