(** The incremental analysis store (paper §4.7).

    Per-section results are keyed by (kernel code hash, golden input-value
    hash, campaign config hash). When developers modify a program, only
    sections whose key changed — edited kernels, or downstream sections
    whose golden inputs differ because an upstream section changed
    semantics — miss in the store and must be re-analyzed; everything else
    is reused at zero injection cost. Semantics-preserving modifications
    therefore re-analyze exactly the edited sections.

    The store also tracks which records are {e dirty} — added or replaced
    since the last persist — so {!Persist.save} can append just the delta
    to the sharded on-disk log instead of rewriting the world. *)

type key = {
  code_hash : int64;
  input_hash : int64;
  config_hash : int64;
}

type section_record = {
  rec_key : key;
  rec_campaign : Ff_inject.Campaign.section_result;
  rec_sensitivity : Ff_sensitivity.Sensitivity.t;
  rec_work : int;  (** injection + sensitivity work this record cost *)
}

type t

val create : unit -> t

val find : t -> key -> section_record option

val peek : t -> key -> section_record option
(** {!find} without touching the hit/miss telemetry — for admission
    probes (the serve daemon classifying a request as replay-free before
    the real, counted lookups run) that must not perturb the counters the
    analysis itself reports. *)

val add : t -> section_record -> unit
(** Last write wins on key collisions. Marks the record dirty. *)

val add_clean : t -> section_record -> unit
(** {!add} without marking the record dirty and without telemetry — used
    by {!Persist.load} for records that already live on disk. *)

val records : t -> section_record list
(** Every stored record, in unspecified order (used by {!Persist}). *)

val dirty_records : t -> section_record list
(** The records changed since the last {!clean} (unspecified order) —
    the delta an incremental {!Persist.save} appends. *)

val clean : t -> section_record list -> unit
(** Mark [written] records clean. A key whose record was replaced again
    after [written] was snapshotted (a concurrent {!add} during a save)
    stays dirty, so the next save still persists the newer record. *)

val size : t -> int

val hits : t -> int
(** Number of successful {!find}s since creation (telemetry for tests
    and reports). *)

val misses : t -> int
