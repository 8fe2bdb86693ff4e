(** Zero-copy replay workspaces for the unboxed engine.

    Splits a campaign's per-replay setup cost into a shared immutable
    {!plan} (one per golden run: unboxed section-boundary states, scalar
    words, writable sets) and a per-domain mutable scratch {!t} whose
    reset is a blit of the entry state — no allocation per replay. *)

type plan = {
  golden : Golden.t;
  states : Ustate.t array;
  (** [n+1] entries: entry state of each of the [n] sections, then the
      final state; [states.(i+1)] is section [i]'s golden exit state *)
  scal_words : Ustate.words array;  (** per section: scalar words *)
  scal_tags : Bytes.t array;       (** per section: scalar tags *)
  writable_idx : int array array;
  (** per section: sorted, de-duplicated writable program-buffer indices *)
  scan_idx : int array array;
  (** per section: sorted bound-but-not-writable program-buffer indices.
      A kernel can only touch buffers bound to its slots, so these are
      the only buffers a side-effect scan must inspect — unbound buffers
      cannot have changed (shared with the boxed path) *)
  bound_idx : int array array;
  (** per section: sorted, de-duplicated bound program-buffer indices —
      the partial-reset set for a section replay *)
  max_nregs : int;
}

val plan_of : Golden.t -> plan
(** The shared plan for a golden run. Cached by physical identity and
    safe to request from any domain; the first caller pays the build.
    The cache holds its golden runs weakly: it keeps neither a golden run
    nor its plan alive. *)

type t = {
  plan : plan;
  state : Ustate.t;      (** scratch program state, reset per replay *)
  regs : Ustate.words;   (** register scratch sized for the largest kernel *)
  rtags : Bytes.t;
  views : Ustate.words array array;
  (** per section: kernel buffer slot → scratch word array (aliases
      [state], precomputed so a replay does zero view allocation) *)
  vtags : Bytes.t array array;
  (** per section: kernel buffer slot → scratch tag bytes *)
}

val get : plan -> t
(** This domain's workspace for [plan] — created on first use, then
    reused for every subsequent replay on this domain (domain-local
    storage; never shared across domains, so no locking on the replay
    path). Held weakly, like {!plan_of}'s cache. *)

val load_entry : t -> int -> unit
(** [load_entry ws i] resets the scratch state to section [i]'s golden
    entry state — a pure blit. *)

val load_section_entry : t -> int -> unit
(** Like {!load_entry}, but restores only section [i]'s bound buffers —
    sufficient for a single-section replay, which can neither touch nor
    observe any other buffer. *)
