(** Request execution for the serve daemon, independent of any socket
    (the server wires it to connections; tests drive it directly).

    Three-tier admission control per [Analyze] request:

    {ol
    {- {b warm}: the [(source, config)] digest, hashed from the request
       bytes in place, hits the {!Cache} — answer with the report the
       entry memoized for this target, written in place by the server.
       An entry holds a {!Report.basis} (the rendered report head, the
       solved knapsack and two totals), not the analysis, so a target
       first asked for later costs one O(#items · log runs) selection
       and a render of the selection tail.
       A warm hit is a hash, an LRU lookup and memoized bytes: no
       compile, decode, replay, store lookup, selection or render, and
       no allocation that outlives the minor heap; it never blocks
       behind anything but the microseconds-scale cache lock.}
    {- {b fast path}: cache miss — only now is the source copied and
       compiled — but after {!Fastflip.Pipeline.prepare}
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

val save : t -> path:string -> Fastflip.Persist.save_stats
(** {!Fastflip.Persist.save} under the store lock, so the dirty-set
    snapshot is consistent with concurrent request threads publishing
    records. Used for the daemon's periodic checkpoints and its
    save-on-exit; both are O(records changed since the last save). *)

val handle : t -> Protocol.request -> Protocol.response
(** Total: any per-request failure (compile error, golden trap) becomes
    [Protocol.Error]; warm state is never corrupted by a failed request,
    and a failed request is not cached, so a repeat gets the same error.
    [Shutdown] answers [Bye] — actually stopping the accept loop is the
    server's job. [handle t r] is [handle_view] on [r] with its source
    viewed whole. *)

val handle_view : t -> Protocol.view Protocol.message -> Protocol.response
(** {!handle} for a request decoded in place ({!Protocol.recv_view}):
    the source view is only read during the call, and copied only on a
    cache miss. *)

val cache_size : t -> int
(** Completed analyses held warm. *)

val config_of :
  ?model:Ff_inject.Fault_model.t ->
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
    every other field is {!Fastflip.Pipeline.default_config}'s, so each
    option that changes the analysis is a {!Protocol.query} field. It
    does not validate: callers that take options from a user run
    {!check_options} first. *)

val check_options :
  bits:int list -> samples:int -> epsilon:float -> (unit, string) result
(** The one validation of user-supplied analysis options, run by the CLI
    commands and by {!handle} on every [Analyze] request: each bit lies
    in [\[0, 63\]] and appears once, [epsilon] is finite and [>= 0], and
    [samples >= 0]. [Error] is a one-line message that names the
    offending option, e.g. ["--bits: bit 64 is outside [0, 63]"]. *)
