module Telemetry = Ff_support.Telemetry
module Hashing = Ff_support.Hashing
module Outcome = Ff_inject.Outcome
module Campaign = Ff_inject.Campaign

(* Salvage and write-path telemetry: how often the store survives a
   corrupt file, how much it loses when it does, and how much work the
   sharded write path avoids. *)
let m_saves = Telemetry.counter "persist.saves"
let m_merged = Telemetry.counter "persist.saves.merged_records"
let m_loads = Telemetry.counter "persist.loads"
let m_loaded = Telemetry.counter "persist.records_loaded"
let m_skipped = Telemetry.counter "persist.records_skipped"
let m_appends = Telemetry.counter "persist.appends"
let m_appended = Telemetry.counter "persist.records_appended"
let m_compactions = Telemetry.counter "persist.compactions"
let m_progress_appended = Telemetry.counter "checkpoint.classes_appended"
let m_progress_loaded = Telemetry.counter "checkpoint.classes_loaded"
let m_progress_skipped = Telemetry.counter "checkpoint.skipped_regions"

let magic_store = "FFSTORE4"
let magic_shard = "FFSHARD2"
let magic_progress = "FFPROGL1"
let default_shards = 16
let max_shards = 64

(* A shard log is compacted during a save once it holds at least this
   many frames and more than twice as many as the records believed live
   in it (dead-record ratio > 1/2). *)
let compact_min_frames = 8

(* --- file primitives -------------------------------------------------------- *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> Ok data
  | exception Sys_error e -> Error e
  (* A concurrent truncation between [in_channel_length] and the read
     surfaces as End_of_file, not Sys_error — fail cleanly, don't leak. *)
  | exception End_of_file -> Error (path ^ ": truncated while reading")

(* First [n] bytes of [path] (fewer if the file is shorter) — enough to
   classify a file without reading all of it. *)
let read_prefix path n =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) -> Error e
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let b = Bytes.create n in
        let rec go off =
          if off >= n then off
          else
            match Unix.read fd b off (n - off) with
            | 0 -> off
            | k -> go (off + k)
        in
        Ok (Bytes.sub_string b 0 (go 0)))

(* Crash-safe replacement: write a sibling temp file, fsync it, then
   rename over the target. Readers see either the old file or the new
   one, never a half-written hybrid; a crash mid-save leaves the previous
   contents untouched. *)
let write_atomic ~path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  (try
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         let len = String.length data in
         let off = ref 0 in
         while !off < len do
           off := !off + Unix.write_substring fd data !off (len - !off)
         done;
         Unix.fsync fd)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  (* Best-effort directory sync so the rename itself survives power loss;
     not all filesystems support it, so failures are ignored. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
    (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
    Unix.close dirfd
  | exception Unix.Unix_error _ -> ()

(* --- locks ------------------------------------------------------------------- *)

(* POSIX record locks ([lockf]) exclude other processes but not other
   threads or domains of this process, so every file lock is paired with
   an in-process mutex from a registry keyed by lock-file path.

   Lock order, everywhere: shard locks in ascending index order first,
   then the manifest lock ([path].lock). No code path acquires a shard
   lock while holding the manifest lock, so writers cannot deadlock. *)
let lock_registry : (string, Mutex.t) Hashtbl.t = Hashtbl.create 16
let registry_mu = Mutex.create ()

let mutex_for lockfile =
  Mutex.lock registry_mu;
  let mu =
    match Hashtbl.find_opt lock_registry lockfile with
    | Some mu -> mu
    | None ->
      let mu = Mutex.create () in
      Hashtbl.add lock_registry lockfile mu;
      mu
  in
  Mutex.unlock registry_mu;
  mu

let with_lock ~lockfile f =
  let mu = mutex_for lockfile in
  Mutex.lock mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mu)
    (fun () ->
      let fd = Unix.openfile lockfile [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
          Unix.close fd)
        (fun () ->
          Unix.lockf fd Unix.F_LOCK 0;
          f ()))

let rec with_locks lockfiles f =
  match lockfiles with
  | [] -> f ()
  | lockfile :: rest -> with_lock ~lockfile (fun () -> with_locks rest f)

(* --- layout ------------------------------------------------------------------ *)

let shard_path path i = Printf.sprintf "%s.s%02d" path i
let shard_lockfile path i = shard_path path i ^ ".lock"

let shard_of ~shards (key : Store.key) =
  let h = Hashing.create () in
  Hashing.add_int64 h key.Store.code_hash;
  Hashing.add_int64 h key.Store.input_hash;
  Hashing.add_int64 h key.Store.config_hash;
  Int64.to_int (Hashing.value h) land max_int mod shards

let check_shards who shards =
  if shards < 1 || shards > max_shards then
    invalid_arg (Printf.sprintf "%s: shard count %d outside [1, %d]" who shards max_shards)

let has_magic data magic =
  String.length data >= String.length magic
  && String.equal (String.sub data 0 (String.length magic)) magic

(* Earlier formats — the monolithic pre-sharding ones and the sharded
   store with fixed-width records — are recognized only to refuse them
   by name. There is no migration: re-running the analysis rebuilds the
   store. *)
let legacy_magic data =
  List.find_opt (has_magic data) [ "FFSTORE1"; "FFSTORE2"; "FFSTORE3" ]

let not_a_store data =
  match legacy_magic data with
  | Some m -> Printf.sprintf "unsupported store format %s (only %s is read)" m magic_store
  | None -> "not a FastFlip store file"

(* [D_other] carries the file's first bytes ([""] if unreadable). *)
type disk_format = D_store | D_missing | D_other of string

let classify path =
  match read_prefix path 8 with
  | Error Unix.ENOENT -> D_missing
  | Error _ -> D_other ""
  | Ok m when String.equal m magic_store -> D_store
  | Ok m -> D_other m

(* The manifest (the file at [path] itself): magic, then one CRC frame
   declaring the layout width, a generation counter bumped by every
   content-changing save, and the record-frame count of each shard log.
   The declared counts catch what frame CRCs cannot: a clean truncation
   that removes whole trailing frames from a log. Writers append shard
   data before declaring it, so at every instant declared <= actual for
   a log — a reader racing a save never sees phantom corruption. *)
let manifest_version = 1

type manifest = {
  mf_shards : int;
  mf_generation : int64;
  mf_frames : int array;
}

let encode_manifest mf =
  let payload = Buffer.create 64 in
  Wire.w_int payload manifest_version;
  Wire.w_int payload mf.mf_shards;
  Wire.w_int64 payload mf.mf_generation;
  Wire.w_array payload Wire.w_int mf.mf_frames;
  let buf = Buffer.create 128 in
  Buffer.add_string buf magic_store;
  Wire.add_frame buf (Buffer.contents payload);
  Buffer.contents buf

let decode_manifest data =
  match Wire.read_frames ~pos:(String.length magic_store) data with
  | [ payload ], 0 -> (
    try
      let c = Wire.cursor payload in
      let version = Wire.r_int c in
      let shards = Wire.r_int c in
      let generation = Wire.r_int64 c in
      let frames = Wire.r_array c Wire.r_int "shard frame counts" in
      if
        version = manifest_version
        && shards >= 1 && shards <= max_shards
        && Array.length frames = shards
        && Array.for_all (fun n -> n >= 0) frames
        && Wire.at_end c
      then Some { mf_shards = shards; mf_generation = generation; mf_frames = frames }
      else None
    with Wire.Corrupt _ -> None)
  | _ -> None

let read_manifest path =
  match read_file path with
  | Ok data when has_magic data magic_store -> decode_manifest data
  | Ok _ | Error _ -> None

let next_generation g = Int64.succ (max 0L g)

(* --- crash-test hook --------------------------------------------------------- *)

(* FF_PERSIST_KILL_AFTER=k SIGKILLs the process right after the k-th
   log write of this process (data fsynced, manifest not yet updated) —
   the window the store-recovery smoke test aims at. Progress-log
   appends count too, so the crash-recovery smoke uses it to kill a
   checkpointed campaign right after a batch is durable. *)
let kill_after_env () =
  match Sys.getenv_opt "FF_PERSIST_KILL_AFTER" with
  | None -> None
  | Some s -> int_of_string_opt (String.trim s)

let shard_writes = Atomic.make 0

let kill_tick () =
  match kill_after_env () with
  | None -> ()
  | Some k ->
    if Atomic.fetch_and_add shard_writes 1 + 1 >= k then
      Unix.kill (Unix.getpid ()) Sys.sigkill

(* --- shard logs -------------------------------------------------------------- *)

let record_frame (record : Store.section_record) =
  let payload = Buffer.create 1024 in
  Wire.w_record payload record;
  Wire.frame (Buffer.contents payload)

(* Append a batch of frames to a log in a single write — the log's
   [magic] rides along when the log is fresh, so a reader never sees a
   magic-less file — and fsync before the manifest may declare it. *)
let append_log ~magic ~spath blob =
  let fd = Unix.openfile spath [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let data = if (Unix.fstat fd).Unix.st_size = 0 then magic ^ blob else blob in
      let len = String.length data in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring fd data !off (len - !off)
      done;
      Unix.fsync fd);
  kill_tick ()

let write_shard ~spath records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic_shard;
  List.iter (fun record -> Buffer.add_string buf (record_frame record)) records;
  write_atomic ~path:spath (Buffer.contents buf);
  kill_tick ()

(* Decode a log's frame payloads with [read], in file order; corrupt or
   trailing-garbage payloads count as skips. *)
let decode_payloads read payloads =
  let skips = ref 0 in
  let entries =
    List.filter_map
      (fun payload ->
        match
          let c = Wire.cursor payload in
          let v = read c in
          if Wire.at_end c then Some v else None
        with
        | Some v -> Some (payload, v)
        | None ->
          incr skips;
          None
        | exception Wire.Corrupt _ ->
          incr skips;
          None)
      payloads
  in
  (entries, !skips)

type shard_info = {
  sh_index : int;
  sh_bytes : int;
  sh_frames : int;  (* structurally valid record frames, dead ones included *)
  sh_live : int;  (* distinct keys (last frame wins) *)
  sh_skipped : int;
}

let load_shard store ~index ~declared spath =
  match read_file spath with
  | Error _ ->
    { sh_index = index; sh_bytes = 0; sh_frames = 0; sh_live = 0;
      sh_skipped = (if declared > 0 then declared else 0) }
  | Ok data ->
    let magic_ok = has_magic data magic_shard in
    let pos = if magic_ok then String.length magic_shard else 0 in
    let frames, frame_skips = Wire.read_frames ~pos data in
    let entries, decode_skips = decode_payloads Wire.r_record frames in
    let keys = Hashtbl.create 16 in
    List.iter
      (fun (_, (record : Store.section_record)) ->
        (* File order: a later delta frame for the same key wins. *)
        Store.add_clean store record;
        Hashtbl.replace keys record.Store.rec_key ())
      entries;
    let actual = List.length entries in
    { sh_index = index;
      sh_bytes = String.length data;
      sh_frames = actual;
      sh_live = Hashtbl.length keys;
      sh_skipped =
        (if magic_ok then 0 else 1)
        + frame_skips + decode_skips
        + max 0 (declared - actual) }

(* --- load -------------------------------------------------------------------- *)

(* One full decode of whatever sits at [path], shared by [load]/[stat]/
   [compact]. *)
type scan = {
  sc_store : Store.t;
  sc_generation : int64;
  sc_shards : int;
  sc_manifest_bytes : int;
  sc_per_shard : shard_info list;
  sc_skipped : int;
}

let sum_skips infos = List.fold_left (fun acc s -> acc + s.sh_skipped) 0 infos

(* The manifest is unreadable (or its magic was destroyed while healthy
   shard logs sit next to it): recover every record the logs still hold
   by probing all possible shard indices. The lost manifest counts as one
   skipped region; without its declared counts, a cleanly truncated log
   tail can no longer be detected — the price of losing it. *)
let salvage_scan ~manifest_bytes path store =
  let infos =
    List.filter_map
      (fun i ->
        let spath = shard_path path i in
        if Sys.file_exists spath then Some (load_shard store ~index:i ~declared:0 spath)
        else None)
      (List.init max_shards Fun.id)
  in
  { sc_store = store;
    sc_generation = 0L;
    sc_shards = List.fold_left (fun acc s -> max acc (s.sh_index + 1)) 0 infos;
    sc_manifest_bytes = manifest_bytes;
    sc_per_shard = infos;
    sc_skipped = 1 + sum_skips infos }

let shard_salvageable path =
  let rec go i =
    i < max_shards
    && ((match read_prefix (shard_path path i) 8 with
        | Ok m -> String.equal m magic_shard
        | Error _ -> false)
       || go (i + 1))
  in
  go 0

let read_store ~path =
  match read_file path with
  | Error e ->
    (* No manifest at all, but shard logs on disk: a writer died between
       its first shard write and the first manifest write. Everything
       fsynced into the logs is recoverable. *)
    if (not (Sys.file_exists path)) && shard_salvageable path then
      Ok (salvage_scan ~manifest_bytes:0 path (Store.create ()))
    else Error e
  | Ok data ->
    if has_magic data magic_store then begin
      let store = Store.create () in
      match decode_manifest data with
      | Some mf ->
        let infos =
          List.init mf.mf_shards (fun i ->
              load_shard store ~index:i ~declared:mf.mf_frames.(i) (shard_path path i))
        in
        Ok
          { sc_store = store;
            sc_generation = mf.mf_generation;
            sc_shards = mf.mf_shards;
            sc_manifest_bytes = String.length data;
            sc_per_shard = infos;
            sc_skipped = sum_skips infos }
      | None -> Ok (salvage_scan ~manifest_bytes:(String.length data) path store)
    end
    else if legacy_magic data = None && shard_salvageable path then
      Ok (salvage_scan ~manifest_bytes:(String.length data) path (Store.create ()))
    else Error (not_a_store data)

let present ~path = Sys.file_exists path || shard_salvageable path

let load ~path =
  Telemetry.incr m_loads;
  match read_store ~path with
  | Error e -> Error e
  | Ok sc ->
    Telemetry.add m_loaded (Store.size sc.sc_store);
    Telemetry.add m_skipped sc.sc_skipped;
    Ok (sc.sc_store, sc.sc_skipped)

let open_store ~strict ~path =
  if not (present ~path) then Ok (None, None)
  else
    match load ~path with
    | Ok (store, 0) -> Ok (Some store, None)
    | Ok (_, skipped) when strict ->
      Error
        (Printf.sprintf "store %s: %d corrupt record(s) refused by --strict-store" path
           skipped)
    | Ok (store, skipped) ->
      let warning = Printf.sprintf "warning: store %s: skipped %d corrupt record(s)" in
      Ok (Some store, Some (warning path skipped))
    | Error e when strict ->
      Error (Printf.sprintf "store %s refused by --strict-store: %s" path e)
    | Error e -> Ok (None, Some (Printf.sprintf "ignoring store %s: %s" path e))

(* --- stat -------------------------------------------------------------------- *)

type info = {
  st_shards : int;
  st_generation : int64;
  st_live : int;
  st_dead : int;
  st_bytes : int;
  st_skipped : int;
  st_per_shard : shard_info list;
}

let stat ~path =
  match read_store ~path with
  | Error e -> Error e
  | Ok sc ->
    let frames = List.fold_left (fun acc s -> acc + s.sh_frames) 0 sc.sc_per_shard in
    let bytes =
      sc.sc_manifest_bytes + List.fold_left (fun acc s -> acc + s.sh_bytes) 0 sc.sc_per_shard
    in
    let live = Store.size sc.sc_store in
    Ok
      { st_shards = sc.sc_shards;
        st_generation = sc.sc_generation;
        st_live = live;
        st_dead = max 0 (frames - live);
        st_bytes = bytes;
        st_skipped = sc.sc_skipped;
        st_per_shard = sc.sc_per_shard }

(* --- save -------------------------------------------------------------------- *)

type save_stats = {
  sv_appended : int;
  sv_live : int;
  sv_compacted : int;
  sv_generation : int64;
}

(* Rewrite shard [i] down to its live records. The new content is staged
   in memory here and only renamed into place after the manifest already
   declares the smaller count, preserving declared <= actual for any
   concurrent reader. The surviving records keep their original payload
   bytes — compaction never re-encodes. *)
let stage_compaction path i =
  let spath = shard_path path i in
  match read_file spath with
  | Error _ -> None
  | Ok data ->
    let pos = if has_magic data magic_shard then String.length magic_shard else 0 in
    let frames, _ = Wire.read_frames ~pos data in
    let entries, _ = decode_payloads Wire.r_record frames in
    let last = Hashtbl.create 64 in
    List.iteri
      (fun idx (payload, (record : Store.section_record)) ->
        Hashtbl.replace last record.Store.rec_key (idx, payload))
      entries;
    let live = Hashtbl.fold (fun _ entry acc -> entry :: acc) last [] in
    let live = List.sort (fun (a, _) (b, _) -> compare (a : int) b) live in
    let buf = Buffer.create (String.length data) in
    Buffer.add_string buf magic_shard;
    List.iter (fun (_, payload) -> Wire.add_frame buf payload) live;
    Some (i, Buffer.contents buf, List.length live)

(* Incremental path: [path] already holds a store with layout [mf0].
   Appends the dirty records to their shard logs under the per-shard
   locks, then folds the frame-count deltas into the manifest under the
   manifest lock — O(dirty) I/O, no read of the existing records.
   [`Retry] means the layout changed underneath us (a concurrent reshard)
   and the caller should re-classify; nothing was cleaned, so no record
   is lost. *)
let save_append store ~path (mf0 : manifest) =
  let shards = mf0.mf_shards in
  let dirty = Store.dirty_records store in
  if dirty = [] then
    `Done
      { sv_appended = 0; sv_live = Store.size store; sv_compacted = 0;
        sv_generation = mf0.mf_generation }
  else begin
    let buckets = Array.make shards [] in
    List.iter
      (fun (record : Store.section_record) ->
        let i = shard_of ~shards record.Store.rec_key in
        buckets.(i) <- record :: buckets.(i))
      dirty;
    let dirty_shards = ref [] in
    for i = shards - 1 downto 0 do
      if buckets.(i) <> [] then dirty_shards := i :: !dirty_shards
    done;
    let dirty_shards = !dirty_shards in
    (* What the in-memory store believes lives in each dirty shard — the
       compaction trigger's live-count estimate. *)
    let live_est = Array.make shards 0 in
    List.iter
      (fun (record : Store.section_record) ->
        let i = shard_of ~shards record.Store.rec_key in
        live_est.(i) <- live_est.(i) + 1)
      (Store.records store);
    with_locks (List.map (shard_lockfile path) dirty_shards) @@ fun () ->
    match read_manifest path with
    | None -> `Retry
    | Some mf when mf.mf_shards <> shards -> `Retry
    | Some mf ->
      List.iter
        (fun i ->
          let blob = String.concat "" (List.rev_map record_frame buckets.(i)) in
          append_log ~magic:magic_shard ~spath:(shard_path path i) blob;
          Telemetry.incr m_appends)
        dirty_shards;
      Telemetry.add m_appended (List.length dirty);
      let staged =
        List.filter_map
          (fun i ->
            let count = mf.mf_frames.(i) + List.length buckets.(i) in
            if count >= compact_min_frames && count > 2 * live_est.(i) then
              stage_compaction path i
            else None)
          dirty_shards
      in
      let outcome =
        with_lock ~lockfile:(path ^ ".lock") @@ fun () ->
        match read_manifest path with
        | Some cur when cur.mf_shards <> shards -> `Retry
        | current ->
          (* [None] here means the manifest was corrupted underneath us
             (a crashed writer): restore our last-known view plus the
             deltas rather than lose the layout. *)
          let cur = match current with Some cur -> cur | None -> mf in
          let frames = Array.copy cur.mf_frames in
          List.iter
            (fun i -> frames.(i) <- frames.(i) + List.length buckets.(i))
            dirty_shards;
          List.iter (fun (i, _, live) -> frames.(i) <- live) staged;
          let gen = Int64.add cur.mf_generation 1L in
          write_atomic ~path
            (encode_manifest { mf_shards = shards; mf_generation = gen; mf_frames = frames });
          `Gen gen
      in
      (match outcome with
      | `Retry -> `Retry
      | `Gen gen ->
        List.iter
          (fun (i, content, _) ->
            write_atomic ~path:(shard_path path i) content;
            Telemetry.incr m_compactions)
          staged;
        Store.clean store dirty;
        `Done
          { sv_appended = List.length dirty;
            sv_live = Store.size store;
            sv_compacted = List.length staged;
            sv_generation = gen })
  end

(* Full-write path: fresh stores, salvage of a store whose manifest was
   destroyed or never written, and reshards. Writes every shard
   log of the target layout (so stale logs from a previous layout cannot
   resurrect deleted records), then declares them in the manifest. *)
let write_full ~path ~shards ~gen records =
  let buckets = Array.make shards [] in
  List.iter
    (fun (record : Store.section_record) ->
      let i = shard_of ~shards record.Store.rec_key in
      buckets.(i) <- record :: buckets.(i))
    records;
  let frames = Array.make shards 0 in
  for i = 0 to shards - 1 do
    let rs = List.rev buckets.(i) in
    frames.(i) <- List.length rs;
    write_shard ~spath:(shard_path path i) rs
  done;
  for i = shards to max_shards - 1 do
    try Sys.remove (shard_path path i) with Sys_error _ -> ()
  done;
  with_lock ~lockfile:(path ^ ".lock") (fun () ->
      write_atomic ~path (encode_manifest { mf_shards = shards; mf_generation = gen; mf_frames = frames }))

(* Rebuild the whole layout, merging whatever [read_store] can still
   read at [path] — a healthy store written since we loaded, or shard
   logs orphaned by a crash before the first manifest write — with our
   records winning on collisions. Anything unreadable is replaced. *)
let save_rebuild ~shards ~lock_hi store ~path =
  with_locks (List.init lock_hi (shard_lockfile path)) @@ fun () ->
  let ours = Store.records store in
  let records, gen =
    match read_store ~path with
    | Error _ -> (ours, 1L)
    | Ok sc ->
      Telemetry.incr m_loads;
      let mine = Hashtbl.create 64 in
      List.iter
        (fun (record : Store.section_record) -> Hashtbl.replace mine record.Store.rec_key ())
        ours;
      let extra =
        List.filter
          (fun (record : Store.section_record) -> not (Hashtbl.mem mine record.Store.rec_key))
          (Store.records sc.sc_store)
      in
      if extra <> [] then Telemetry.add m_merged (List.length extra);
      (extra @ ours, next_generation sc.sc_generation)
  in
  write_full ~path ~shards ~gen records;
  Store.clean store records;
  { sv_appended = List.length records;
    sv_live = Store.size store;
    sv_compacted = 0;
    sv_generation = gen }

let save ?(shards = default_shards) store ~path =
  check_shards "Persist.save" shards;
  Telemetry.incr m_saves;
  let rebuild lock_hi = save_rebuild ~shards ~lock_hi store ~path in
  let rec attempt tries =
    match classify path with
    | D_store -> (
      match read_manifest path with
      | Some mf -> (
        match save_append store ~path mf with
        | `Done stats -> stats
        | `Retry when tries > 0 -> attempt (tries - 1)
        | `Retry -> (
          match read_manifest path with
          | Some mf -> rebuild (max shards mf.mf_shards)
          | None -> rebuild max_shards))
      | None ->
        (* Store magic but an unreadable manifest frame: rebuild the layout,
           salvaging whatever the shard logs still hold. *)
        rebuild max_shards)
    | D_missing | D_other _ -> rebuild shards
  in
  attempt 4

(* --- explicit compaction ------------------------------------------------------ *)

type compact_stats = {
  cp_live : int;
  cp_dropped : int;
  cp_shards : int;
  cp_generation : int64;
}

let compact ?shards ~path () =
  (match shards with Some s -> check_shards "Persist.compact" s | None -> ());
  match classify path with
  | D_missing -> Error (path ^ ": no such store")
  | D_other prefix -> Error (not_a_store prefix)
  | D_store ->
    let current =
      match read_manifest path with Some mf -> Some mf.mf_shards | None -> None
    in
    let target =
      match (shards, current) with
      | Some s, _ -> s
      | None, Some n -> n
      | None, None -> default_shards
    in
    let lock_hi = match current with Some n -> max n target | None -> max_shards in
    with_locks (List.init lock_hi (shard_lockfile path)) @@ fun () ->
    (match read_store ~path with
    | Error e -> Error e
    | Ok sc ->
      let records = Store.records sc.sc_store in
      let live = List.length records in
      let frames = List.fold_left (fun acc s -> acc + s.sh_frames) 0 sc.sc_per_shard in
      let gen = next_generation sc.sc_generation in
      write_full ~path ~shards:target ~gen records;
      Telemetry.add m_compactions target;
      Ok { cp_live = live; cp_dropped = max 0 (frames - live); cp_shards = target; cp_generation = gen })

(* --- campaign progress log ------------------------------------------------------ *)

(* In-flight campaign outcomes for [--checkpoint-every]/[--resume]: a
   sibling log at [path.progress] framed like a shard log under its own
   magic, appended by [append_log] under its own lock and read by the
   same salvaging frame reader. One frame is one batch: a store key plus
   its [(class_index, outcome, work)] triples, outcomes in the store
   records' encoding. *)
let progress_path path = path ^ ".progress"

type progress = {
  pg_path : string;
  pg_every : int;
  pg_done : (Store.key * int, Outcome.section_outcome * int) Hashtbl.t;
}

let r_batch c =
  let key = Wire.r_key c in
  let r_entry c =
    let idx = Wire.r_int c in
    let outcome = Wire.r_outcome c in
    let work = Wire.r_int c in
    (idx, outcome, work)
  in
  (key, Wire.r_list c r_entry "progress batch")

(* Fold every salvageable batch into [pg_done] (a later entry for the
   same class wins); returns the skipped regions. An empty file is an
   empty log: a crash between [append_log]'s create and its first
   write leaves one. *)
let read_progress lpath pg_done =
  match read_file lpath with
  | Error e -> Error e
  | Ok data when data <> "" && not (has_magic data magic_progress) ->
    (* A log of the earlier format (shard-log magic, fixed-width
       outcomes) would decode to garbage: refuse it by name. *)
    Error
      (if has_magic data magic_shard then
         Printf.sprintf "unsupported progress-log format %s (only %s is read)" magic_shard
           magic_progress
       else "not a FastFlip progress log")
  | Ok data ->
    let frames, frame_skips = Wire.read_frames ~pos:(String.length magic_progress) data in
    let batches, decode_skips = decode_payloads r_batch frames in
    List.iter
      (fun (_, (key, batch)) ->
        List.iter (fun (idx, outcome, work) -> Hashtbl.replace pg_done (key, idx) (outcome, work)) batch)
      batches;
    Ok (frame_skips + decode_skips)

let open_progress ~path ~every ~resume =
  if every < 1 then invalid_arg "Persist.open_progress: every must be >= 1";
  let lpath = progress_path path in
  let lockfile = lpath ^ ".lock" in
  let pg_done = Hashtbl.create 256 in
  match
    with_lock ~lockfile @@ fun () ->
    if resume && Sys.file_exists lpath then read_progress lpath pg_done
    else begin
      (try Sys.remove lpath with Sys_error _ -> ());
      Ok 0
    end
  with
  | exception Unix.Unix_error (e, _, _) -> Error (lockfile ^ ": " ^ Unix.error_message e)
  | Error e -> Error e
  | Ok skipped ->
    Telemetry.add m_progress_loaded (Hashtbl.length pg_done);
    Telemetry.add m_progress_skipped skipped;
    Ok ({ pg_path = lpath; pg_every = every; pg_done }, Hashtbl.length pg_done, skipped)

let progress_journal pg ~key =
  let j_done = Hashtbl.create 64 in
  Hashtbl.iter (fun (k, idx) v -> if k = key then Hashtbl.replace j_done idx v) pg.pg_done;
  let append batch =
    let payload = Buffer.create 1024 in
    Wire.w_key payload key;
    Wire.w_list payload
      (fun buf (idx, outcome, work) ->
        Wire.w_int buf idx;
        Wire.w_outcome buf outcome;
        Wire.w_int buf work)
      batch;
    let frame = Wire.frame (Buffer.contents payload) in
    with_lock ~lockfile:(pg.pg_path ^ ".lock") (fun () ->
        append_log ~magic:magic_progress ~spath:pg.pg_path frame);
    Telemetry.add m_progress_appended (List.length batch)
  in
  { Campaign.j_every = pg.pg_every; j_done; j_append = append }

let remove_progress pg = try Sys.remove pg.pg_path with Sys_error _ -> ()

(* --- structural equality (tests) --------------------------------------------- *)

module Sensitivity = Ff_sensitivity.Sensitivity

let sensitivity_equal (a : Sensitivity.t) (b : Sensitivity.t) =
  a.Sensitivity.section_index = b.Sensitivity.section_index
  && a.Sensitivity.input_buffers = b.Sensitivity.input_buffers
  && a.Sensitivity.output_buffers = b.Sensitivity.output_buffers
  && a.Sensitivity.samples_used = b.Sensitivity.samples_used
  && a.Sensitivity.work = b.Sensitivity.work
  && Array.length a.Sensitivity.k = Array.length b.Sensitivity.k
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb && Array.for_all2 Outcome.float_equal ra rb)
       a.Sensitivity.k b.Sensitivity.k

let roundtrip_equal (a : Store.section_record) (b : Store.section_record) =
  a.Store.rec_key = b.Store.rec_key
  && a.Store.rec_work = b.Store.rec_work
  && a.Store.rec_campaign.Campaign.section_index
     = b.Store.rec_campaign.Campaign.section_index
  && a.Store.rec_campaign.Campaign.s_work = b.Store.rec_campaign.Campaign.s_work
  && a.Store.rec_campaign.Campaign.s_injections
     = b.Store.rec_campaign.Campaign.s_injections
  && a.Store.rec_campaign.Campaign.s_sites = b.Store.rec_campaign.Campaign.s_sites
  && Array.length a.Store.rec_campaign.Campaign.s_classes
     = Array.length b.Store.rec_campaign.Campaign.s_classes
  && Array.for_all2
       (fun (ca, oa) (cb, ob) -> ca = cb && Outcome.section_equal oa ob)
       a.Store.rec_campaign.Campaign.s_classes b.Store.rec_campaign.Campaign.s_classes
  && sensitivity_equal a.Store.rec_sensitivity b.Store.rec_sensitivity
