(* Zero-copy replay workspaces.

   A campaign replays each section thousands of times. The golden run
   already holds everything shared and immutable a replay reads (the
   unboxed boundary states, scalar words, index sets); a workspace is
   the mutable rest, one per (domain × golden run): a single unboxed
   program state, a register file sized for the largest kernel, and
   per-section buffer-slot views aliasing the scratch arrays. A replay
   resets by blitting the golden entry state into the scratch (a memcpy,
   no allocation) instead of reallocating. *)

type t = {
  golden : Golden.t;
  state : Ustate.t;       (* scratch program state, reset per replay *)
  regs : Ustate.words;    (* register file for the largest kernel *)
  rtags : Bytes.t;
  views : Ustate.words array array;
  (* per section: kernel buffer slot -> aliased scratch word array *)
  vtags : Bytes.t array array;
}

let create (golden : Golden.t) =
  let state = Ustate.create_like golden.Golden.final in
  let sections = golden.Golden.sections in
  let views =
    Array.map
      (fun (s : Golden.section_run) ->
        Array.map (fun (idx, _) -> state.Ustate.words.(idx)) s.Golden.bindings)
      sections
  in
  let vtags =
    Array.map
      (fun (s : Golden.section_run) ->
        Array.map (fun (idx, _) -> state.Ustate.tags.(idx)) s.Golden.bindings)
      sections
  in
  let max_nregs =
    Array.fold_left
      (fun n (s : Golden.section_run) -> max n s.Golden.decoded.Decode.nregs)
      1 sections
  in
  {
    golden;
    state;
    regs = Ustate.make_words max_nregs;
    rtags = Bytes.make max_nregs Ustate.tag_int;
    views;
    vtags;
  }

(* One scratch per (domain × golden run), via domain-local storage: pool
   workers each reuse their own workspace across every replay they run,
   with no locking on the replay path. Ephemerons on the golden run, so
   the cache keeps neither it nor its workspace alive. *)
let dls_key = Domain.DLS.new_key (fun () -> Ff_support.Ephemeron_cache.create 4)

let get golden =
  Ff_support.Ephemeron_cache.find_or_compute (Domain.DLS.get dls_key) golden (fun () ->
      create golden)

let load_entry ws i =
  Ustate.blit ~src:ws.golden.Golden.sections.(i).Golden.entry ~dst:ws.state

(* A section replay can only read or write the buffers bound to its
   slots, and its classification only inspects bound buffers — so the
   reset need only restore those, however a previous replay on this
   workspace dirtied the rest. *)
let load_section_entry ws i =
  let section = ws.golden.Golden.sections.(i) in
  Ustate.blit_buffers ~src:section.Golden.entry ~dst:ws.state section.Golden.bound_idx
