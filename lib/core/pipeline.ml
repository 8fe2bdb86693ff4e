open Ff_inject
module Golden = Ff_vm.Golden
module Dataflow = Ff_chisel.Dataflow
module Propagate = Ff_chisel.Propagate
module Sensitivity = Ff_sensitivity.Sensitivity
module Kernel = Ff_ir.Kernel
module Hashing = Ff_support.Hashing
module Rng = Ff_support.Rng
module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry

(* The paper's central metric — sections re-analyzed vs reused — plus the
   work they cost, as process-wide counters next to Store's per-store
   hit/miss telemetry. *)
let m_runs = Telemetry.counter "pipeline.runs"
let m_sections_total = Telemetry.counter "pipeline.sections.total"
let m_reused = Telemetry.counter "pipeline.sections.reused"
let m_reanalyzed = Telemetry.counter "pipeline.sections.reanalyzed"
let m_work = Telemetry.counter "pipeline.work"
let m_work_total = Telemetry.counter "pipeline.total_section_work"

type config = {
  campaign : Campaign.config;
  sensitivity_samples : int;
  max_perturbation : float;
  safety_factor : float;
  epsilon : float;
  seed : int64;
}

let default_config =
  {
    campaign = Campaign.default_config;
    sensitivity_samples = 200;
    max_perturbation = 0.01;
    safety_factor = 1.25;
    epsilon = 0.0;
    seed = 42L;
  }

type analysis = {
  golden : Golden.t;
  dataflow : Dataflow.t;
  sections : Store.section_record array;
  propagation : Propagate.t;
  valuation : Valuation.t;
  solution : Knapsack.solution;
  work : int;
  total_section_work : int;
  sections_reused : int;
  sections_analyzed : int;
}

(* A reused record may come from a version where the section sat at a
   different schedule index; rewrite the indices to the current one.
   The bit classes of a group are adjacent and share one group, so each
   distinct group is rebased once (members and representative together)
   and stays shared; groups that share a member array keep sharing the
   rebased one. *)
let rebase_record (record : Store.section_record) ~section_index =
  if record.Store.rec_campaign.Campaign.section_index = section_index then record
  else begin
    let last_src = ref [||] and last_dst = ref [||] in
    let rebase_members members =
      if members != !last_src then begin
        last_src := members;
        last_dst := Array.map (fun (_, dyn) -> (section_index, dyn)) members
      end;
      !last_dst
    in
    let last_group = ref None in
    let rebase_group (g : Eqclass.group) =
      match !last_group with
      | Some (src, dst) when src == g -> dst
      | _ ->
        let dst =
          {
            g with
            Eqclass.g_members = rebase_members g.Eqclass.g_members;
            g_representative = (section_index, snd g.Eqclass.g_representative);
          }
        in
        last_group := Some (g, dst);
        dst
    in
    let rebase_class (cls : Eqclass.t) =
      { cls with Eqclass.group = rebase_group cls.Eqclass.group }
    in
    let campaign =
      {
        record.Store.rec_campaign with
        Campaign.section_index;
        s_classes =
          Array.map
            (fun (cls, outcome) -> (rebase_class cls, outcome))
            record.Store.rec_campaign.Campaign.s_classes;
      }
    in
    let sensitivity =
      { record.Store.rec_sensitivity with Sensitivity.section_index }
    in
    { record with Store.rec_campaign = campaign; rec_sensitivity = sensitivity }
  end

(* The sampling fields, in the one order both keys hash them. *)
let add_sampling h config =
  Hashing.add_int h config.sensitivity_samples;
  Hashing.add_float h config.max_perturbation;
  Hashing.add_float h config.safety_factor;
  Hashing.add_int64 h config.seed

let config_hash config =
  let h = Hashing.create () in
  add_sampling h config;
  Hashing.add_float h config.epsilon;
  Hashing.combine (Campaign.config_hash config.campaign) (Hashing.value h)

let section_key config (section : Golden.section_run) =
  let h = Hashing.create () in
  add_sampling h config;
  {
    Store.code_hash = Kernel.code_hash section.Golden.kernel;
    input_hash = section.Golden.input_hash;
    config_hash = Hashing.combine (Campaign.config_hash config.campaign) (Hashing.value h);
  }

(* A disjoint key space in the same persistent store for injection-measured
   detector coverage: the section's campaign key, scoped by the hash of
   the exact candidate detector set (and a format version, so a future
   coverage encoding never reads old frames as current ones). Campaign
   records and coverage records for the same section can therefore never
   collide, and two different candidate sets never share measurements. *)
let coverage_version = 1

let coverage_key config (section : Golden.section_run) ~detector_hash =
  let base = section_key config section in
  {
    base with
    Store.config_hash =
      Hashing.combine base.Store.config_hash
        (let h = Hashing.create () in
         Hashing.add_string h "detector-coverage";
         Hashing.add_int h coverage_version;
         Hashing.add_int64 h detector_hash;
         Hashing.add_float h config.epsilon;
         Hashing.value h);
  }

let analyze_section ?pool ?journal config golden ~section_index ~key =
  let campaign =
    Campaign.run_section ?pool ?journal golden ~section_index config.campaign
  in
  let rng =
    Rng.create
      (Hashing.combine config.seed
         (Hashing.combine key.Store.code_hash key.Store.input_hash))
  in
  let sensitivity =
    Sensitivity.estimate ~samples:config.sensitivity_samples
      ~max_perturbation:config.max_perturbation ~safety_factor:config.safety_factor
      ?pool ~rng golden ~section_index
  in
  {
    Store.rec_key = key;
    rec_campaign = campaign;
    rec_sensitivity = sensitivity;
    rec_work = campaign.Campaign.s_work + sensitivity.Sensitivity.work;
  }

(* The parallel analyze keeps the on-disk store single-writer: all
   [Store.find]/[Store.add] calls happen on the coordinating domain, in
   schedule order, exactly as in the serial run (including the hit/miss
   telemetry and the reuse of a record added earlier in the same run when
   two sections share a key). Only the cache-miss section analyses — the
   actual campaigns and sensitivity sampling — fan out over the pool. *)
type section_plan =
  | Cached of Store.section_record  (* hit against the pre-existing store *)
  | Fresh_first                     (* first section needing this key *)
  | Fresh_dup                       (* later section sharing a missed key *)

type prepared = {
  p_program : Ff_ir.Program.t;
  p_golden : Golden.t;
  p_dataflow : Dataflow.t;
  p_keys : Store.key array;
}

let prepare config program =
  let golden = Golden.run program in
  let dataflow = Dataflow.of_golden golden in
  let keys = Array.map (section_key config) golden.Golden.sections in
  { p_program = program; p_golden = golden; p_dataflow = dataflow; p_keys = keys }

type backing = {
  lookup : Store.key -> Store.section_record option;
  publish : Store.section_record -> unit;
}

let backing_of_store store =
  { lookup = Store.find store; publish = Store.add store }

let analyze_prepared ?backing ?(pool = Pool.serial) ?journal config prepared =
  let golden = prepared.p_golden in
  let dataflow = prepared.p_dataflow in
  let keys = prepared.p_keys in
  (* Phase 1 (coordinating domain): one counted lookup per key; duplicate
     misses defer their lookup to phase 3, where the serial run would
     have found the record just added. *)
  let missed = Hashtbl.create 16 in
  let plan =
    Array.map
      (fun key ->
        if Hashtbl.mem missed key then Fresh_dup
        else
          match backing with
          | Some b ->
            (match b.lookup key with
            | Some record -> Cached record
            | None ->
              Hashtbl.add missed key ();
              Fresh_first)
          | None ->
            Hashtbl.add missed key ();
            Fresh_first)
      keys
  in
  (* Phase 2 (pool): analyze each missed key once, in parallel. *)
  let miss_indices =
    Array.of_seq
      (Seq.filter
         (fun i -> plan.(i) = Fresh_first)
         (Seq.init (Array.length keys) Fun.id))
  in
  (* Section-level progress for long campaigns: prints (when active) a
     rate-limited done/total + ETA line to stderr; stepping from worker
     domains is safe and costs an atomic increment. *)
  let meter =
    Telemetry.progress ~label:"analyze: sections" ~total:(Array.length miss_indices)
  in
  let analyze_one section_index =
    let key = keys.(section_index) in
    (* Checkpointed campaigns: completed classes of this key restore from
       the journal; fresh batches append to it (safe from pool domains). *)
    let journal = Option.map (fun journal_of -> journal_of key) journal in
    let record = analyze_section ~pool ?journal config golden ~section_index ~key in
    Telemetry.step meter;
    record
  in
  let fresh =
    (* With a single miss, leave the pool free so the section's own
       campaign and sensitivity loops parallelize instead. *)
    if Array.length miss_indices <= 1 then Array.map analyze_one miss_indices
    else Pool.map_array pool analyze_one miss_indices
  in
  Telemetry.finish meter;
  let fresh_by_key = Hashtbl.create 16 in
  Array.iteri (fun j i -> Hashtbl.replace fresh_by_key keys.(i) fresh.(j)) miss_indices;
  (* Phase 3 (coordinating domain): store writes and counters in schedule
     order, bit-identical to the serial loop. *)
  let work = ref 0 in
  let total_section_work = ref 0 in
  let reused = ref 0 in
  let analyzed = ref 0 in
  let reuse record =
    incr reused;
    total_section_work := !total_section_work + record.Store.rec_work
  in
  let charge record =
    incr analyzed;
    work := !work + record.Store.rec_work;
    total_section_work := !total_section_work + record.Store.rec_work
  in
  let sections =
    Array.mapi
      (fun section_index key ->
        let record =
          match plan.(section_index) with
          | Cached record ->
            reuse record;
            record
          | Fresh_first ->
            let record = Hashtbl.find fresh_by_key key in
            (match backing with Some b -> b.publish record | None -> ());
            charge record;
            record
          | Fresh_dup ->
            (match backing with
            | Some b ->
              (* The serial run's lookup for this section: a hit against
                 the record added by the Fresh_first occurrence. *)
              (match b.lookup key with
              | Some record ->
                reuse record;
                record
              | None -> assert false)
            | None ->
              (* Without a store the serial run re-analyzes every section;
                 the result is deterministic, so charging the shared
                 record preserves both outputs and counters. *)
              let record = Hashtbl.find fresh_by_key key in
              charge record;
              record)
        in
        rebase_record record ~section_index)
      keys
  in
  let specs = Array.map (fun r -> r.Store.rec_sensitivity) sections in
  let propagation = Propagate.run golden ~specs in
  let campaigns = Array.map (fun r -> r.Store.rec_campaign) sections in
  let valuation =
    Valuation.of_fastflip golden ~propagation ~sections:campaigns
      ~epsilon:config.epsilon
  in
  let solution = Knapsack.solve (Knapsack.items_of_valuation valuation) in
  Telemetry.incr m_runs;
  Telemetry.add m_sections_total (Array.length keys);
  Telemetry.add m_reused !reused;
  Telemetry.add m_reanalyzed !analyzed;
  Telemetry.add m_work !work;
  Telemetry.add m_work_total !total_section_work;
  {
    golden;
    dataflow;
    sections;
    propagation;
    valuation;
    solution;
    work = !work;
    total_section_work = !total_section_work;
    sections_reused = !reused;
    sections_analyzed = !analyzed;
  }

let analyze ?store ?pool ?journal config program =
  Telemetry.span "pipeline.analyze" @@ fun () ->
  let prepared = prepare config program in
  analyze_prepared
    ?backing:(Option.map backing_of_store store)
    ?pool ?journal config prepared

let select analysis ~target =
  let total = analysis.valuation.Valuation.total_value in
  Knapsack.select analysis.solution ~target:(Knapsack.integer_target ~total target)

let revaluate analysis ~epsilon =
  let campaigns = Array.map (fun r -> r.Store.rec_campaign) analysis.sections in
  let valuation =
    Valuation.of_fastflip analysis.golden ~propagation:analysis.propagation
      ~sections:campaigns ~epsilon
  in
  let solution = Knapsack.solve (Knapsack.items_of_valuation valuation) in
  { analysis with valuation; solution }
