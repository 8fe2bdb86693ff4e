(** Request execution for the serve daemon, independent of any socket
    (the server wires it to connections; tests drive it directly).

    Three-tier admission control per [Analyze] request:

    {ol
    {- {b warm}: the [(source, config)] digest hits the {!Cache} — answer
       with a fresh knapsack selection over the cached analysis. Zero
       decodes, replays, or store lookups; never blocks behind anything
       but the microseconds-scale cache lock.}
    {- {b fast path}: cache miss, but after {!Fastflip.Pipeline.prepare}
       every section key is already in the shared store (probed with the
       uncounted {!Fastflip.Store.peek}). Pure store-lookup + knapsack
       work: runs on the connection's own thread, taking the store lock
       only per lookup — it {e never} waits behind running injections.}
    {- {b slow lane}: at least one section needs an injection campaign.
       These serialize on the campaign lane mutex so each gets the full
       domain pool (concurrent campaigns would otherwise degrade each
       other to serial pool fallbacks), while identical concurrent
       requests coalesce in the cache instead of queueing twice.}}

    Results are bit-identical to the one-shot CLI: the same pipeline, the
    same report renderer, and coalescing keeps the reuse accounting
    independent of client count. *)

type t

val create :
  ?cache_capacity:int ->
  ?store:Fastflip.Store.t ->
  ?pool:Ff_support.Pool.t ->
  unit ->
  t
(** The store is shared (and mutated) across all requests; the pool is
    used by slow-lane campaigns. Defaults: capacity 32, fresh empty
    store, serial pool. *)

val store : t -> Fastflip.Store.t

val save : ?shards:int -> t -> path:string -> Fastflip.Persist.save_stats
(** {!Fastflip.Persist.save} under the store lock, so the dirty-set
    snapshot is consistent with concurrent request threads publishing
    records. Used for the daemon's periodic checkpoints and its
    save-on-exit; both are O(records changed since the last save). *)

val handle : t -> Protocol.request -> Protocol.response
(** Total: any per-request failure (compile error, golden trap) becomes
    [Protocol.Error]; warm state is never corrupted by a failed request.
    [Shutdown] answers [Bye] — actually stopping the accept loop is the
    server's job. *)

val config_of :
  ?model:Ff_inject.Fault_model.t ->
  ?safety_factor:float ->
  bits:int list ->
  samples:int ->
  epsilon:float ->
  prove:bool ->
  unit ->
  Fastflip.Pipeline.config
(** The CLI's option-to-config mapping, shared by the one-shot commands
    and the daemon so both sides of the byte-identity contract build the
    exact same analysis configuration. [bits = []] means the default
    stratified subset; [model] defaults to single-bit register flips;
    [safety_factor] defaults to the pipeline's 1.25 sensitivity margin. *)
