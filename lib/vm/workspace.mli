(** Zero-copy replay workspaces for the unboxed engine.

    A replay reads its golden boundary states, scalar words and index
    sets straight from the {!Golden.t}; what it needs besides is a
    per-domain mutable scratch {!t} whose reset is a blit of the golden
    entry state — no allocation per replay. *)

type t = {
  golden : Golden.t;
  state : Ustate.t;      (** scratch program state, reset per replay *)
  regs : Ustate.words;   (** register scratch sized for the largest kernel *)
  rtags : Bytes.t;
  views : Ustate.words array array;
  (** per section: kernel buffer slot → scratch word array (aliases
      [state], precomputed so a replay does zero view allocation) *)
  vtags : Bytes.t array array;
  (** per section: kernel buffer slot → scratch tag bytes *)
}

val get : Golden.t -> t
(** This domain's workspace for a golden run — created on first use,
    then reused for every subsequent replay on this domain (domain-local
    storage; never shared across domains, so no locking on the replay
    path). Keyed by the golden run's physical identity and held weakly:
    the cache keeps neither a golden run nor its workspace alive. *)

val load_entry : t -> int -> unit
(** [load_entry ws i] resets the scratch state to section [i]'s golden
    entry state — a pure blit. *)

val load_section_entry : t -> int -> unit
(** Like {!load_entry}, but restores only section [i]'s bound buffers —
    sufficient for a single-section replay, which can neither touch nor
    observe any other buffer. *)
