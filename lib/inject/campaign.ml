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
let m_masked = Telemetry.counter "campaign.outcome.masked"
let m_sdc = Telemetry.counter "campaign.outcome.sdc"
let m_crash = Telemetry.counter "campaign.outcome.crash"
let m_timeout = Telemetry.counter "campaign.outcome.timeout"
let m_misformatted = Telemetry.counter "campaign.outcome.misformatted"
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

let tally_detected = function
  | Outcome.Crash -> Telemetry.incr m_crash
  | Outcome.Timed_out -> Telemetry.incr m_timeout
  | Outcome.Misformatted -> Telemetry.incr m_misformatted

let tally_section_outcomes classes =
  if Telemetry.enabled () then
    Array.iter
      (fun (_, outcome) ->
        match outcome with
        | Outcome.S_detected kind -> tally_detected kind
        | Outcome.S_sdc _ ->
          if Outcome.section_is_masked outcome then Telemetry.incr m_masked
          else Telemetry.incr m_sdc)
      classes

(* Per-model outcome tallies under [campaign.model.<name>.*], on top of
   the aggregate [campaign.outcome.*] counters — a mixed-model metrics
   export (e.g. the serve daemon answering queries under several models)
   stays attributable. Interning is idempotent and only reached when
   telemetry is on, so the hot path never pays the string append. *)
let model_counter model suffix =
  Telemetry.counter ("campaign.model." ^ Fault_model.name model ^ "." ^ suffix)

let tally_model_section_outcomes model classes =
  if Telemetry.enabled () then begin
    let masked = model_counter model "outcome.masked"
    and sdc = model_counter model "outcome.sdc"
    and crash = model_counter model "outcome.crash"
    and timeout = model_counter model "outcome.timeout"
    and misformatted = model_counter model "outcome.misformatted" in
    Array.iter
      (fun (_, outcome) ->
        match outcome with
        | Outcome.S_detected Outcome.Crash -> Telemetry.incr crash
        | Outcome.S_detected Outcome.Timed_out -> Telemetry.incr timeout
        | Outcome.S_detected Outcome.Misformatted -> Telemetry.incr misformatted
        | Outcome.S_sdc _ ->
          if Outcome.section_is_masked outcome then Telemetry.incr masked
          else Telemetry.incr sdc)
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

(* Each class replay is independent; the pool maps classes to outcomes in
   deterministic slots, and work is accumulated by summing the per-class
   counts afterwards (never through a shared ref). *)
let sum_work tagged = Array.fold_left (fun acc (_, w) -> acc + w) 0 tagged

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

let quarantined_section ~model cls (_ : exn) =
  tally_quarantined ~model cls;
  (Outcome.S_detected Outcome.Crash, 0)

let quarantined_final ~model cls (_ : exn) =
  tally_quarantined ~model cls;
  (Outcome.F_detected Outcome.Crash, 0)

(* [quarantined] is item-aware: it gets the element whose replay raised,
   so the substitute outcome can be attributed to the right class. *)
let run_plain ~pool ~quarantined run_one items =
  Array.mapi
    (fun k -> function Ok r -> r | Error e -> quarantined items.(k) e)
    (Pool.map_array_result ~on_retry pool run_one items)

(* The prover pre-pass: one slot per class, proved classes decided with
   zero replays and zero metered work. Returns the residual class
   indices, in enumeration order. *)
let prove_slots proofs slots =
  let residual = ref [] in
  for i = Array.length proofs - 1 downto 0 do
    match proofs.(i) with
    | Some outcome -> slots.(i) <- Some (outcome, 0)
    | None -> residual := i :: !residual
  done;
  Array.of_list !residual

(* Journaled execution of the residual class indices in batches of
   [j_every] — outcomes already in the journal are restored without
   replaying, and each completed batch is appended (and made durable)
   before the next starts, so a killed campaign resumes from its last
   checkpoint with bit-identical results (every class outcome is
   deterministic, and per-class work counts ride along in the journal).
   Journal entries are keyed by class index in enumeration order;
   proved classes are never journaled, and the prover is deterministic
   for a fixed store key (which folds the prover policy hash), so the
   residual index set of a resumed run always matches the killed one. *)
let run_journaled ~pool ~journal:j ~quarantined run_one indices slots =
  let checked batch results =
    Array.mapi
      (fun k -> function Ok r -> r | Error e -> quarantined batch.(k) e)
      results
  in
  begin
    if j.j_every < 1 then invalid_arg "Campaign.run_journaled: journal step must be >= 1";
    let todo = ref [] in
    for k = Array.length indices - 1 downto 0 do
      let i = indices.(k) in
      match Hashtbl.find_opt j.j_done i with
      | Some r ->
        slots.(i) <- Some r;
        Telemetry.incr m_journal_restored
      | None -> todo := i :: !todo
    done;
    let todo = Array.of_list !todo in
    let m = Array.length todo in
    let start = ref 0 in
    while !start < m do
      let b = min j.j_every (m - !start) in
      let batch = Array.sub todo !start b in
      let results = checked batch (Pool.map_array_result ~on_retry pool run_one batch) in
      Array.iteri (fun k i -> slots.(i) <- Some results.(k)) batch;
      j.j_append
        (Array.to_list
           (Array.mapi
              (fun k i ->
                let outcome, work = results.(k) in
                (i, outcome, work))
              batch));
      Telemetry.incr m_journal_batches;
      start := !start + b
    done
  end

let run_section ?(pool = Pool.serial) ?(engine = Replay.Unboxed) ?classes ?journal
    golden ~section_index config =
  Telemetry.span "campaign.run_section"
    ~attrs:[ ("section", string_of_int section_index) ]
  @@ fun () ->
  let section = golden.Golden.sections.(section_index) in
  let model = config.model in
  let class_list =
    match classes with
    | Some l -> l
    | None -> Eqclass.for_section ~model section config.bits
  in
  let classes = Array.of_list class_list in
  let n = Array.length classes in
  let proofs =
    Prover.prove_section golden ~section_index ~timeout_factor:config.timeout_factor
      ~model config.prove classes
  in
  let slots = Array.make n None in
  let residual = prove_slots proofs slots in
  let run_one i =
    let cls = classes.(i) in
    let injection = Site.replay_injection ~model (Eqclass.pilot cls) in
    let replay =
      Replay.run_section ~burst:(Fault_model.reg_burst model) ~engine golden section
        injection ~timeout_factor:config.timeout_factor
    in
    (Outcome.of_section_replay replay, replay.Replay.s_executed)
  in
  let quarantined i e = quarantined_section ~model classes.(i) e in
  (match journal with
  | None ->
    let results = run_plain ~pool ~quarantined run_one residual in
    Array.iteri (fun k i -> slots.(i) <- Some results.(k)) residual
  | Some journal -> run_journaled ~pool ~journal ~quarantined run_one residual slots);
  (* Masked and crash outcomes repeat across most classes: the result
     holds each distinct outcome once. *)
  let intern = Outcome.section_interner () in
  let tagged =
    Array.mapi
      (fun i slot ->
        match slot with
        | Some (outcome, work) -> ((classes.(i), intern outcome), work)
        | None -> assert false)
      slots
  in
  let result =
    {
      section_index;
      s_classes = Array.map fst tagged;
      s_work = sum_work tagged;
      s_injections = Array.length residual;
      s_sites = Eqclass.total_sites class_list;
    }
  in
  Telemetry.incr m_sections;
  Telemetry.add m_injections result.s_injections;
  Telemetry.add m_avoided (n - Array.length residual);
  Telemetry.add m_sites result.s_sites;
  Telemetry.add m_work result.s_work;
  Telemetry.observe h_section_work result.s_work;
  tally_section_outcomes result.s_classes;
  tally_model_section_outcomes model result.s_classes;
  result

type baseline_result = {
  b_classes : (Eqclass.t * Outcome.final_outcome) array;
  b_work : int;
  b_injections : int;
  b_sites : int;
}

let run_baseline ?(pool = Pool.serial) ?(engine = Replay.Unboxed) golden config =
  Telemetry.span "campaign.run_baseline" @@ fun () ->
  let model = config.model in
  let class_list = Eqclass.for_program ~model golden config.bits in
  let classes = Array.of_list class_list in
  let outcomes =
    run_plain ~pool
      ~quarantined:(fun cls e -> quarantined_final ~model cls e)
      (fun cls ->
        let pilot = Eqclass.pilot cls in
        let injection = Site.replay_injection ~model pilot in
        let replay =
          Replay.run_to_end ~burst:(Fault_model.reg_burst model) ~engine golden
            ~from_section:pilot.Site.section injection
            ~timeout_factor:config.timeout_factor
        in
        (Outcome.of_program_replay replay, replay.Replay.p_executed))
      classes
  in
  let tagged = Array.mapi (fun i (outcome, work) -> ((classes.(i), outcome), work)) outcomes in
  let result =
    {
      b_classes = Array.map fst tagged;
      b_work = sum_work tagged;
      b_injections = Array.length classes;
      b_sites = Eqclass.total_sites class_list;
    }
  in
  Telemetry.incr m_b_runs;
  Telemetry.add m_b_injections result.b_injections;
  Telemetry.add m_b_sites result.b_sites;
  Telemetry.add m_b_work result.b_work;
  result

let final_outcomes_for_section ?(pool = Pool.serial) ?(engine = Replay.Unboxed)
    ?classes golden ~section_index config =
  Telemetry.span "campaign.final_outcomes"
    ~attrs:[ ("section", string_of_int section_index) ]
  @@ fun () ->
  (* Callers that already ran the per-section campaign (the pipeline's
     §4.10 "simultaneous" mode) pass its classes back in rather than
     paying the enumeration again; the fallback re-enumerates. *)
  let model = config.model in
  let classes =
    match classes with
    | Some c -> c
    | None ->
      let section = golden.Golden.sections.(section_index) in
      Array.of_list (Eqclass.for_section ~model section config.bits)
  in
  let proofs =
    Prover.prove_final golden ~section_index ~timeout_factor:config.timeout_factor
      ~model config.prove classes
  in
  let slots = Array.make (Array.length classes) None in
  let residual = prove_slots proofs slots in
  let results =
    run_plain ~pool
      ~quarantined:(fun i e -> quarantined_final ~model classes.(i) e)
      (fun i ->
        let cls = classes.(i) in
        let injection = Site.replay_injection ~model (Eqclass.pilot cls) in
        let replay =
          Replay.run_to_end ~burst:(Fault_model.reg_burst model) ~engine golden
            ~from_section:section_index injection
            ~timeout_factor:config.timeout_factor
        in
        (Outcome.of_program_replay replay, replay.Replay.p_executed))
      residual
  in
  Array.iteri (fun k i -> slots.(i) <- Some results.(k)) residual;
  let intern = Outcome.final_interner () in
  let tagged =
    Array.mapi
      (fun i slot ->
        match slot with
        | Some (outcome, work) -> ((classes.(i), intern outcome), work)
        | None -> assert false)
      slots
  in
  let work = sum_work tagged in
  Telemetry.add m_f_injections (Array.length residual);
  Telemetry.add m_f_work work;
  (Array.map fst tagged, work)
