(** On-disk persistence of the incremental analysis store.

    FastFlip "records the analysis results for reuse on future program
    versions" (§1); persisting the store across process runs makes the
    incremental analysis usable from a CI job or the serve daemon. On a
    production deployment the store {e is} the accumulated value of every
    campaign ever run, so this layer is built to survive the faults such
    deployments see — and to charge saves for what changed, not for what
    exists.

    {2 Layout (format [FFSTORE4])}

    A store at [path] is a {e manifest} plus [N] {e shard logs}:

    {ul
    {- [path] — the manifest: magic, then one CRC frame declaring the
       layout width [N], a {e generation} counter bumped by every
       content-changing save, and the record-frame count of each log.}
    {- [path.sNN] — shard log [NN]: magic, then an append-only sequence
       of CRC-framed records ({!Wire.frame}) in the compact encoding of
       {!Wire.w_record}: varint ints, each class group's member list
       written once, shared again by the classes of the group after
       {!load}. Records are hash-sharded by
       store key, so each key lives in exactly one log; within a log a
       later frame for the same key supersedes the earlier one (a
       {e delta log}).}
    {- [path.progress] — the campaign progress log (present only while a
       checkpointed analysis is in flight, see {!open_progress}): the
       shard-log file format, one frame per checkpointed batch. {!load},
       {!stat}, {!compact} and {!present} never look at it.}}

    {2 Guarantees}

    {ul
    {- {b O(dirty) saves}: {!save} appends only the records added or
       replaced since the store was loaded or last saved ({!Store}'s
       dirty tracking), then updates the manifest — it never reads or
       rewrites existing records.}
    {- {b Corruption}: {!load} salvages every intact frame from every
       log; a corrupt shard loses only its own damaged region, never its
       siblings. The manifest's declared counts catch clean tail
       truncation that CRCs cannot; a destroyed manifest degrades to
       probing the logs directly.}
    {- {b Crashes}: log appends are fsynced before the manifest declares
       them, and manifest/compaction rewrites go through
       temp-fsync-rename, so at every instant declared <= actual — a
       reader racing a save or a crash never sees phantom corruption and
       never loses an acknowledged record.}
    {- {b Concurrent writers}: each log has its own advisory lock
       ([path.sNN.lock], paired with an in-process mutex so domains and
       threads are excluded too); writers touching disjoint shards
       append in parallel. Lock order is shard locks ascending, then the
       manifest lock ([path.lock]) — deadlock-free by construction.
       Blind appends make merge-don't-clobber the default: nobody
       overwrites records it has not seen.}
    {- {b Compaction}: a save that leaves a log with at least 8 frames
       and more than twice its live records rewrites just that log down
       to the live set (original payload bytes preserved); {!compact}
       does it store-wide and can reshard.}}

    [FFSTORE4] is the only format read or written: a file holding an
    older encoding — the monolithic [FFSTORE1]/[FFSTORE2], or [FFSTORE3]
    with fixed-width records — is refused with an error naming its
    format. There is no migration: re-running the analysis rebuilds the
    store. *)

val default_shards : int
(** Layout width given to newly created stores when [?shards] is omitted
    (16). *)

val max_shards : int
(** Upper bound on a layout width (64). *)

val shard_of : shards:int -> Store.key -> int
(** The shard index [key] hashes to in a [shards]-wide layout (stable
    across processes; exposed for tests and benchmarks that construct
    disjoint-shard workloads). *)

val shard_path : string -> int -> string
(** [shard_path path i] is the shard-log file name [path.sNN]. *)

(** {1 Saving} *)

type save_stats = {
  sv_appended : int;  (** records written by this save *)
  sv_live : int;  (** records in the in-memory store after the save *)
  sv_compacted : int;  (** shard logs compacted as a side effect *)
  sv_generation : int64;  (** the store's generation after the save *)
}

val save : ?shards:int -> Store.t -> path:string -> save_stats
(** Persist [store]'s dirty records to the store at [path] and mark them
    clean.

    Over an existing store this appends the dirty records to their shard
    logs and bumps the manifest — O(dirty) work; the layout width on disk
    wins and [?shards] is ignored. Otherwise it writes a fresh
    [?shards]-wide store (default {!default_shards}) holding every record,
    merged (ours winning on collisions) with whatever {!load} can still
    read at [path] — e.g. shard logs whose manifest a crash never wrote.
    A file that is not a readable store (including a legacy
    [FFSTORE1]/[FFSTORE2]/[FFSTORE3] file) is replaced.

    Raises [Sys_error] / [Unix.Unix_error] on I/O failure and
    [Invalid_argument] on a [?shards] outside [1, {!max_shards}] — never
    leaves a store unloadable. *)

(** {1 Loading} *)

val present : path:string -> bool
(** Whether there is anything at [path] worth loading: a manifest (or
    any other file), or — after a crash that never reached the first
    manifest write — recognizable shard logs to salvage. Callers that
    used to gate a load on [Sys.file_exists] should use this instead, or
    a mid-first-save crash looks like a missing store. *)

val load : path:string -> (Store.t * int, string) result
(** Read the store at [path]. [Ok (store, skipped)] holds every record
    that survived CRC and structural validation plus the number of
    corrupt records/regions skipped; [skipped = 0] means the store was
    pristine. [Error] only for a missing/unreadable file, a legacy
    [FFSTORE1]/[FFSTORE2]/[FFSTORE3] file (the message names the format), or one
    that is not a FastFlip store at all. Never raises on corrupt input
    (including files truncated or appended to concurrently with the
    read). *)

val open_store :
  strict:bool -> path:string -> (Store.t option * string option, string) result
(** The one way a command opens the store it was given. [Ok (Some store,
    warning)]: the store at [path] was loaded; [warning] counts the corrupt
    records it skipped. [Ok (None, warning)]: there is nothing at [path]
    ({!present}), or it is unreadable and [warning] says it is ignored;
    start from an empty store. With [strict], skipped records or an
    unreadable file are an [Error] instead, whose message says
    [--strict-store] refused it. *)

(** {1 Inspection and maintenance} *)

type shard_info = {
  sh_index : int;
  sh_bytes : int;
  sh_frames : int;  (** valid record frames, superseded ones included *)
  sh_live : int;  (** distinct keys (last frame wins) *)
  sh_skipped : int;  (** corrupt regions + declared-count shortfall *)
}

type info = {
  st_shards : int;
  st_generation : int64;
  st_live : int;
  st_dead : int;  (** superseded frames awaiting compaction *)
  st_bytes : int;  (** manifest + all logs *)
  st_skipped : int;
  st_per_shard : shard_info list;
}

val stat : path:string -> (info, string) result
(** Scan the store at [path] without locking (racing writers can only
    make the numbers momentarily conservative). Fails like {!load}. *)

type compact_stats = {
  cp_live : int;
  cp_dropped : int;  (** superseded/corrupt frames left behind *)
  cp_shards : int;
  cp_generation : int64;
}

val compact : ?shards:int -> path:string -> unit -> (compact_stats, string) result
(** Rewrite the whole store down to its live records, under every shard
    lock. [?shards] reshards to a new layout width; omitted, the current
    width is kept ({!default_shards} if the manifest is unreadable).
    [Error] for a missing path or a file that is not a store, legacy
    formats named as for {!load}. Concurrent readers may transiently
    over-count [skipped] during a reshard; they never lose records. *)

(** {1 Campaign progress}

    A checkpointed analysis keeps its completed equivalence-class
    outcomes in the progress log [path.progress]: one CRC frame per
    campaign batch (the section's store key and its
    [(class_index, outcome, work)] triples), appended and fsynced under
    [path.progress.lock] like a shard-log write — [FF_PERSIST_KILL_AFTER]
    counts these appends too. It is in-flight work, not part of the
    store: remove it once the final {!save} has succeeded. *)

type progress

val progress_path : string -> string
(** [progress_path path] is the progress-log file name [path.progress]. *)

val open_progress :
  path:string -> every:int -> resume:bool -> (progress * int * int, string) result
(** Open the progress log of the store at [path], checkpointing every
    [every] classes ([Invalid_argument] unless [every >= 1]). With
    [resume = false] (or no log on disk) any leftover log is discarded;
    with [resume = true] every batch the salvaging frame reader recovers
    is loaded and new batches are appended after it. Returns the handle,
    the class outcomes restored and the corrupt regions skipped. [Error]
    for an unreadable log, a file that is not a progress log, or a lock
    file that cannot be created. *)

val progress_journal : progress -> key:Store.key -> Ff_inject.Campaign.journal
(** One section's campaign view: its restored outcomes as [j_done], and a
    [j_append] that frames, appends and fsyncs each completed batch (safe
    from pool worker domains). *)

val remove_progress : progress -> unit
(** Delete the progress log. *)

(** {1 Structural equality (tests)} *)

val roundtrip_equal : Store.section_record -> Store.section_record -> bool
(** Structural equality of two records (exposed for tests; outcomes by
    {!Ff_inject.Outcome.section_equal}, floats by bit pattern). *)
