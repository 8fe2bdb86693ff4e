(** Injection-measured detector coverage (no modeling, no guessing).

    For each SDC-Bad equivalence class of a section's completed
    campaign, re-run the pilot injection with {!Ff_vm.Replay.run_section_capture}
    and evaluate every candidate detector against the faulty exit
    buffers: a detector {e covers} the class iff it fires on the pilot.
    The replays reuse the campaign's exact fault lowering (model burst,
    pilot site, timeout budget) on the unboxed engine, pooled over
    classes with order-independent merging — deterministic at any pool
    width.

    Measurements are cached in the analysis store under
    {!Fastflip.Pipeline.coverage_key}: fired-detector masks are encoded
    as a well-formed campaign record ([S_sdc] magnitude pairs, one per
    fired detector index), so coverage shares the store's save, salvage,
    and sharding machinery without a wire-format change. A cached record
    that fails structural validation against the current class list is
    treated as a miss. *)

type t = {
  c_section : int;
  c_detectors : Detector.t array;
  c_classes : (Ff_inject.Eqclass.t * int) array;
      (** (SDC-Bad class, fired-detector bitmask), campaign class order *)
  c_covered : int array;
      (** per detector: Σ {!Ff_inject.Eqclass.size} over classes it catches *)
  c_replays : int;  (** pilot replays actually executed (0 on cache hit) *)
  c_work : int;     (** dynamic instructions those replays cost *)
  c_cached : bool;
}

val measure :
  ?pool:Ff_support.Pool.t ->
  ?backing:Fastflip.Pipeline.backing ->
  Fastflip.Pipeline.config ->
  Ff_vm.Golden.t ->
  section_index:int ->
  detectors:Detector.t array ->
  classes:Ff_inject.Eqclass.t list ->
  t
(** [classes] are the section's SDC-Bad classes (e.g.
    {!Fastflip.Valuation.bad_labels_in_section}), in campaign order.
    At most 62 detectors per section (mask width); raises
    [Invalid_argument] beyond that. Without a [backing] nothing is
    cached. *)
