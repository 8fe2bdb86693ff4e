open Ff_ir

(* Zero-copy replay workspaces.

   A campaign replays each section thousands of times. The boxed path
   used to pay [Array.map Array.copy] per replay (fresh boxed state) plus
   an O(buffers × writables) [List.mem] scan per classification. This
   module splits that cost into:

   - a {!plan}: one immutable, shareable pre-computation per [Golden.t] —
     every section-boundary state in unboxed form, per-section scalar
     words, and per-section writable-index sets/masks. Built once,
     safe to read from any domain.
   - a {!t} (workspace): one mutable scratch per (domain × plan) — a
     single unboxed program state, a register file sized for the largest
     kernel, and per-section buffer-slot views aliasing the scratch
     arrays. A replay resets by blitting the entry state into the
     scratch (a memcpy, no allocation) instead of reallocating. *)

type plan = {
  golden : Golden.t;
  states : Ustate.t array;
  (* n+1 entries: entry state of each section, then the final state;
     [states.(i+1)] is section i's golden exit state *)
  scal_words : Ustate.words array;
  scal_tags : Bytes.t array;
  writable_idx : int array array;
  (* per section: sorted, de-duplicated writable program-buffer indices *)
  scan_idx : int array array;
  (* per section: sorted bound-but-not-writable program-buffer indices —
     the only buffers a side-effect scan must inspect, since a kernel can
     only touch buffers bound to its slots *)
  bound_idx : int array array;
  (* per section: sorted, de-duplicated bound program-buffer indices —
     the partial-reset set for a section replay *)
  max_nregs : int;
}

let build_plan (golden : Golden.t) =
  let sections = golden.Golden.sections in
  let n = Array.length sections in
  let states =
    Array.init (n + 1) (fun i ->
        if i < n then Ustate.of_state sections.(i).Golden.entry_state
        else Ustate.of_state golden.Golden.final_state)
  in
  let nbufs = Array.length golden.Golden.final_state in
  let scal_words = Array.make n (Ustate.make_words 0) in
  let scal_tags = Array.make n Bytes.empty in
  let writable_idx = Array.make n [||] in
  let scan_idx = Array.make n [||] in
  let bound_idx = Array.make n [||] in
  let max_nregs = ref 1 in
  Array.iteri
    (fun i (section : Golden.section_run) ->
      let w, t = Ustate.scalars_of_values section.Golden.scalars in
      scal_words.(i) <- w;
      scal_tags.(i) <- t;
      let idx =
        Array.to_list section.Golden.bindings
        |> List.filter_map (fun (idx, role) ->
               if Kernel.role_writable role then Some idx else None)
        |> List.sort_uniq compare |> Array.of_list
      in
      writable_idx.(i) <- idx;
      let writable = Array.make nbufs false in
      Array.iter (fun j -> writable.(j) <- true) idx;
      scan_idx.(i) <-
        (Array.to_list section.Golden.bindings
        |> List.filter_map (fun (idx, _) -> if writable.(idx) then None else Some idx)
        |> List.sort_uniq compare |> Array.of_list);
      bound_idx.(i) <-
        (Array.to_list section.Golden.bindings
        |> List.map fst |> List.sort_uniq compare |> Array.of_list);
      if section.Golden.decoded.Decode.nregs > !max_nregs then
        max_nregs := section.Golden.decoded.Decode.nregs)
    sections;
  {
    golden;
    states;
    scal_words;
    scal_tags;
    writable_idx;
    scan_idx;
    bound_idx;
    max_nregs = !max_nregs;
  }

(* Plans are cached by physical identity of the golden run: the pipeline
   holds one Golden.t per program and fans replays out across domains,
   so every worker finds the same shared plan. [plan_of] sits on the
   per-replay path, so the hit case must be a plain load plus a short
   walk, with no lock traffic between domains. Small bound — evicting
   merely re-pays one build. The cache never keeps a golden run (or its
   plan) alive that nothing else holds. *)
let plan_cache : (Golden.t, plan) Ff_support.Ephemeron_cache.t =
  Ff_support.Ephemeron_cache.create 8

let plan_of golden =
  Ff_support.Ephemeron_cache.find_or_compute plan_cache golden (fun () ->
      build_plan golden)

type t = {
  plan : plan;
  state : Ustate.t;       (* scratch program state, reset per replay *)
  regs : Ustate.words;    (* register file for the largest kernel *)
  rtags : Bytes.t;
  views : Ustate.words array array;
  (* per section: kernel buffer slot -> aliased scratch word array *)
  vtags : Bytes.t array array;
}

let create plan =
  let state = Ustate.create_like plan.states.(0) in
  let sections = plan.golden.Golden.sections in
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
  {
    plan;
    state;
    regs = Ustate.make_words plan.max_nregs;
    rtags = Bytes.make plan.max_nregs Ustate.tag_int;
    views;
    vtags;
  }

(* One scratch per (domain × plan), via domain-local storage: pool
   workers each reuse their own workspace across every replay they run,
   with no locking on the replay path. Ephemerons on the plan, as in
   [plan_cache]. *)
let dls_key : (plan, t) Ephemeron.K1.t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let workspace_cache_cap = 4

let get plan =
  let cache = Domain.DLS.get dls_key in
  match List.find_map (fun e -> Ephemeron.K1.query e plan) !cache with
  | Some ws -> ws
  | None ->
    let ws = create plan in
    let kept =
      if List.length !cache >= workspace_cache_cap then
        List.filteri (fun i _ -> i < workspace_cache_cap - 1) !cache
      else !cache
    in
    cache := Ephemeron.K1.make plan ws :: kept;
    ws

let load_entry ws i = Ustate.blit ~src:ws.plan.states.(i) ~dst:ws.state

(* A section replay can only read or write the buffers bound to its
   slots, and its classification only inspects bound buffers — so the
   reset need only restore those, however a previous replay on this
   workspace dirtied the rest. *)
let load_section_entry ws i =
  Ustate.blit_buffers ~src:ws.plan.states.(i) ~dst:ws.state ws.plan.bound_idx.(i)
