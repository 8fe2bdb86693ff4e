(** The [fastflip serve] daemon: a Unix-domain-socket server around
    {!Engine}.

    One accept loop on the calling thread, one lightweight thread per
    connection (the heavy lifting — campaigns — still runs on the shared
    domain pool, gated by the engine's slow lane). Shutdown is
    cooperative: SIGTERM/SIGINT or a [Shutdown] request sets a flag the
    accept loop polls; in-flight requests are drained (bounded wait), the
    socket file is removed, and the store — if persistent — is saved with
    the incremental, merging {!Fastflip.Persist.save}.

    With [save_every], a background thread also checkpoints the store
    periodically; each tick appends only the records published since the
    last save (O(dirty) under the sharded store), so a killed daemon
    loses at most one interval of results.

    A malformed or hostile connection (garbage bytes, truncated frames,
    oversized length prefixes) gets a best-effort [Error] response and is
    dropped; the daemon itself and its warm state are untouched. *)

val run :
  socket:string ->
  ?store_path:string ->
  ?strict_store:bool ->
  ?save_every:float ->
  ?pool:Ff_support.Pool.t ->
  unit ->
  unit
(** Bind [socket] (an existing socket file is replaced), serve until
    shut down, then clean up. [save_every] is the background checkpoint
    interval in seconds (omitted or <= 0: save only on exit); a fresh
    store is created {!Fastflip.Persist.default_shards} wide. Progress
    chatter goes to stderr; the "serving on" banner goes to stdout
    (scripts wait for it). Raises [Unix.Unix_error] if the socket cannot
    be bound, and exits nonzero via [Failure] if [strict_store] rejects a
    corrupt store. *)

val handle_connection :
  Engine.t -> shutdown:bool Atomic.t -> Unix.file_descr -> unit
(** Serve one connection until the peer closes it, sends garbage, or
    asks for [Shutdown] (which also sets [shutdown]); then close [fd].
    What {!run} runs on each connection's thread. *)
