open Ff_vm
module Hashing = Ff_support.Hashing
module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry

(* Per-phase telemetry (paper-style campaign statistics): how many
   sections/classes/sites each campaign kind visited, how much simulated
   work it cost, and the outcome-class tallies behind v(pc). All values
   are sums over deterministic result arrays, so they are identical for
   every pool width. *)
let m_sections = Telemetry.counter "campaign.sections"
let m_injections = Telemetry.counter "campaign.injections"
let m_sites = Telemetry.counter "campaign.sites"
let m_work = Telemetry.counter "campaign.work"
let h_section_work = Telemetry.histogram "campaign.section_work"
let m_b_runs = Telemetry.counter "campaign.baseline.runs"
let m_b_injections = Telemetry.counter "campaign.baseline.injections"
let m_b_sites = Telemetry.counter "campaign.baseline.sites"
let m_b_work = Telemetry.counter "campaign.baseline.work"
let m_f_injections = Telemetry.counter "campaign.final.injections"
let m_f_work = Telemetry.counter "campaign.final.work"
let m_retries = Telemetry.counter "campaign.retries"
let m_quarantined = Telemetry.counter "campaign.quarantined"
let m_journal_batches = Telemetry.counter "campaign.journal.batches"
let m_journal_restored = Telemetry.counter "campaign.journal.restored"
let m_avoided = Telemetry.counter "campaign.injections_avoided"

(* Per-model counters under [campaign.model.<name>.*], on top of the
   aggregate ones — a mixed-model metrics export (e.g. the serve daemon
   answering queries under several models) stays attributable. Interning
   is idempotent and only reached when telemetry is on, so the hot path
   never pays the string append. *)
let model_counter model suffix =
  Telemetry.counter ("campaign.model." ^ Fault_model.name model ^ "." ^ suffix)

let outcome_kinds = [| "masked"; "sdc"; "crash"; "timeout"; "misformatted" |]

let m_outcomes =
  Array.map (fun kind -> Telemetry.counter ("campaign.outcome." ^ kind)) outcome_kinds

let outcome_kind = function
  | Outcome.S_detected Outcome.Crash -> 2
  | Outcome.S_detected Outcome.Timed_out -> 3
  | Outcome.S_detected Outcome.Misformatted -> 4
  | Outcome.S_sdc _ as o -> if Outcome.section_is_masked o then 0 else 1

(* The outcome tallies behind v(pc), under [campaign.outcome.*] and the
   model's own [campaign.model.<name>.outcome.*]. *)
let tally_outcomes model classes =
  if Telemetry.enabled () then begin
    let by_model =
      Array.map (fun kind -> model_counter model ("outcome." ^ kind)) outcome_kinds
    in
    Array.iter
      (fun (_, outcome) ->
        let k = outcome_kind outcome in
        Telemetry.incr m_outcomes.(k);
        Telemetry.incr by_model.(k))
      classes
  end

type config = {
  bits : Site.bit_policy;
  timeout_factor : float;
  model : Fault_model.t;
  prove : Prover.policy;
}

let default_config =
  {
    bits = Site.default_bits;
    timeout_factor = 5.0;
    model = Fault_model.default;
    prove = Prover.default_policy;
  }

let config_hash config =
  let h = Hashing.create () in
  List.iter (Hashing.add_int h) (Site.bits_of_policy config.bits);
  Hashing.add_float h config.timeout_factor;
  (* The default model's contribution is bit-identical to the plain burst
     integer this field used to be, so pre-model stores and journals stay
     warm; see Fault_model.hash_fold. *)
  Fault_model.hash_fold h config.model;
  (* The prover policy hash covers Prover.version, so stored records and
     checkpoint journals never mix prover generations or prove-on/off
     runs — a prover bug can be bisected with FF_PROVE=off without any
     risk of reading poisoned cache entries back. *)
  Hashing.add_int64 h (Prover.policy_hash config.prove);
  Hashing.value h

type section_result = {
  section_index : int;
  s_classes : (Eqclass.t * Outcome.section_outcome) array;
  s_work : int;
  s_injections : int;
  s_sites : int;
}

type journal = {
  j_every : int;
  j_done : (int, Outcome.section_outcome * int) Hashtbl.t;
  j_append : (int * Outcome.section_outcome * int) list -> unit;
}

let on_retry _ = Telemetry.incr m_retries

(* A replay whose execution itself faults (a pathological kernel blowing
   the interpreter stack, say) is quarantined by the pool rather than
   aborting the campaign; a crashed replay is by definition a detected
   outcome, and it executed nothing we can meter, so it costs 0 work.
   The quarantine receives the class it stands in for: the substituted
   outcome applies to that exact class key — which under the skip, opcode
   and memflip models is an [Op]/[Mem] operand, not a register-flip
   triple — and the class's member sites are tallied under the faulting
   model, so a quarantined class is visible in the per-model metrics
   instead of silently folding into the aggregate crash count. *)
let tally_quarantined ~model (cls : Eqclass.t) =
  Telemetry.incr m_quarantined;
  if Telemetry.enabled () then begin
    Telemetry.incr (model_counter model "quarantined");
    Telemetry.add (model_counter model "quarantined.sites") (Eqclass.size cls)
  end

(* A {!journal} over either scope's outcomes. *)
type 'o checkpoint = {
  every : int;
  restore : int -> ('o * int) option;
  append : (int * 'o * int) list -> unit;
}

(* The one fan-out path: the residual class indices run on the pool and
   fill their slots, a replay that raised standing in as [quarantined].
   Without a checkpoint they run as a single batch (an empty one
   included) with no append. With one, outcomes it already holds are
   restored without replaying and the rest run in batches of [every],
   each appended (and made durable) before the next starts, so a killed
   campaign resumes from its last checkpoint with bit-identical results:
   every class outcome is deterministic, and per-class work counts ride
   along. Entries are keyed by class index in enumeration order; proved
   classes are never journaled, and the prover is deterministic for a
   fixed store key (which folds the prover policy hash), so a resumed
   run's residual index set always matches the killed one's. *)
let fan_out ~pool ?checkpoint ~quarantined run_one residual slots =
  let todo, every =
    match checkpoint with
    | None -> (residual, max 1 (Array.length residual))
    | Some c ->
      if c.every < 1 then invalid_arg "Campaign.run_section: journal step must be >= 1";
      let restored i =
        match c.restore i with
        | Some r ->
          slots.(i) <- Some r;
          Telemetry.incr m_journal_restored;
          true
        | None -> false
      in
      let todo = List.filter (fun i -> not (restored i)) (Array.to_list residual) in
      (Array.of_list todo, c.every)
  in
  let m = Array.length todo in
  let batches = match checkpoint with None -> 1 | Some _ -> (m + every - 1) / every in
  for b = 0 to batches - 1 do
    let start = b * every in
    let size = min every (m - start) in
    let batch = if size = m then todo else Array.sub todo start size in
    Array.iteri
      (fun k result ->
        let i = batch.(k) in
        slots.(i) <- Some (match result with Ok r -> r | Error e -> quarantined i e))
      (Pool.map_array_result ~on_retry pool run_one batch);
    Option.iter
      (fun c ->
        let entry i =
          let outcome, work = Option.get slots.(i) in
          (i, outcome, work)
        in
        c.append (List.map entry (Array.to_list batch));
        Telemetry.incr m_journal_batches)
      checkpoint
  done

(* One injection scope: how a class pilot's injection replays (its
   outcome and the dynamic instructions it cost), what a quarantined
   replay records, and the interner its result holds outcomes in. *)
type 'o scope = {
  replay :
    engine:Replay.engine -> burst:int -> timeout_factor:float -> Golden.t -> Site.t ->
    Replay.injection -> 'o * int;
  crash : 'o;
  interner : unit -> 'o -> 'o;
}

(* The pilot's section alone, from its golden entry state. *)
let section_scope =
  {
    replay =
      (fun ~engine ~burst ~timeout_factor golden pilot injection ->
        let section = golden.Golden.sections.(pilot.Site.section) in
        let r =
          Replay.run_section ~burst ~engine golden section injection ~timeout_factor
        in
        (Outcome.of_section_replay r, r.Replay.s_executed));
    crash = Outcome.S_detected Outcome.Crash;
    interner = Outcome.section_interner;
  }

(* End to end: from the pilot section's entry state through the end of
   the program. *)
let end_to_end_scope =
  {
    replay =
      (fun ~engine ~burst ~timeout_factor golden pilot injection ->
        let from_section = pilot.Site.section in
        let r =
          Replay.run_to_end ~burst ~engine golden ~from_section injection ~timeout_factor
        in
        (Outcome.of_program_replay r, r.Replay.p_executed));
    crash = Outcome.F_detected Outcome.Crash;
    interner = Outcome.final_interner;
  }

(* The class driver of every campaign: the [prove] pre-pass decides what
   it can with zero replays and zero metered work, the residual classes
   fan out, and the outcomes are interned in enumeration order (masked
   and crash outcomes repeat across most classes: the result holds each
   distinct outcome once). Returns the outcomes, the summed per-class
   work and the number of residual classes. Each replay is independent,
   and the pool fills deterministic slots, so the result is the same at
   every pool width. *)
let drive ~pool ?checkpoint ?prove ~engine golden config scope classes =
  let model = config.model in
  let burst = Fault_model.reg_burst model and timeout_factor = config.timeout_factor in
  let slots =
    match prove with
    | Some prove -> Array.map (Option.map (fun outcome -> (outcome, 0))) (prove classes)
    | None -> Array.map (fun _ -> None) classes
  in
  let residual = ref [] in
  for i = Array.length slots - 1 downto 0 do
    if Option.is_none slots.(i) then residual := i :: !residual
  done;
  let residual = Array.of_list !residual in
  let quarantined i (_ : exn) =
    tally_quarantined ~model classes.(i);
    (scope.crash, 0)
  in
  fan_out ~pool ?checkpoint ~quarantined
    (fun i ->
      let pilot = Eqclass.pilot classes.(i) in
      scope.replay ~engine ~burst ~timeout_factor golden pilot
        (Site.replay_injection ~model pilot))
    residual slots;
  let intern = scope.interner () in
  ( Array.mapi (fun i slot -> (classes.(i), intern (fst (Option.get slot)))) slots,
    Array.fold_left (fun work slot -> work + snd (Option.get slot)) 0 slots,
    Array.length residual )

let run_section ?(pool = Pool.serial) ?(engine = Replay.Unboxed) ?classes ?journal
    golden ~section_index config =
  Telemetry.span "campaign.run_section"
    ~attrs:[ ("section", string_of_int section_index) ]
  @@ fun () ->
  let model = config.model in
  let class_list =
    match classes with
    | Some l -> l
    | None ->
      Eqclass.for_section ~model golden.Golden.sections.(section_index) config.bits
  in
  let classes = Array.of_list class_list in
  let checkpoint =
    Option.map
      (fun j ->
        { every = j.j_every; restore = Hashtbl.find_opt j.j_done; append = j.j_append })
      journal
  in
  let s_classes, s_work, s_injections =
    drive ~pool ?checkpoint ~engine golden config section_scope classes
      ~prove:
        (Prover.prove_section golden ~section_index ~timeout_factor:config.timeout_factor
           ~model config.prove)
  in
  let s_sites = Eqclass.total_sites class_list in
  Telemetry.incr m_sections;
  Telemetry.add m_injections s_injections;
  Telemetry.add m_avoided (Array.length classes - s_injections);
  Telemetry.add m_sites s_sites;
  Telemetry.add m_work s_work;
  Telemetry.observe h_section_work s_work;
  tally_outcomes model s_classes;
  { section_index; s_classes; s_work; s_injections; s_sites }

type baseline_result = {
  b_classes : (Eqclass.t * Outcome.final_outcome) array;
  b_work : int;
  b_injections : int;
  b_sites : int;
}

let run_baseline ?(pool = Pool.serial) ?(engine = Replay.Unboxed) golden config =
  Telemetry.span "campaign.run_baseline" @@ fun () ->
  let class_list = Eqclass.for_program ~model:config.model golden config.bits in
  let b_classes, b_work, b_injections =
    drive ~pool ~engine golden config end_to_end_scope (Array.of_list class_list)
  in
  let b_sites = Eqclass.total_sites class_list in
  Telemetry.incr m_b_runs;
  Telemetry.add m_b_injections b_injections;
  Telemetry.add m_b_sites b_sites;
  Telemetry.add m_b_work b_work;
  { b_classes; b_work; b_injections; b_sites }

let final_outcomes_for_section ?(pool = Pool.serial) ?(engine = Replay.Unboxed)
    ?classes golden ~section_index config =
  Telemetry.span "campaign.final_outcomes"
    ~attrs:[ ("section", string_of_int section_index) ]
  @@ fun () ->
  let model = config.model in
  let classes =
    match classes with
    | Some c -> c
    | None ->
      let section = golden.Golden.sections.(section_index) in
      Array.of_list (Eqclass.for_section ~model section config.bits)
  in
  let outcomes, work, injections =
    drive ~pool ~engine golden config end_to_end_scope classes
      ~prove:
        (Prover.prove_final golden ~section_index ~timeout_factor:config.timeout_factor
           ~model config.prove)
  in
  Telemetry.add m_f_injections injections;
  Telemetry.add m_f_work work;
  (outcomes, work)
