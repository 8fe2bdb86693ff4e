module Golden = Ff_vm.Golden
module Replay = Ff_vm.Replay
module Value = Ff_ir.Value
module Site = Ff_inject.Site
module Eqclass = Ff_inject.Eqclass
module Outcome = Ff_inject.Outcome
module Campaign = Ff_inject.Campaign
module Fault_model = Ff_inject.Fault_model
module Sensitivity = Ff_sensitivity.Sensitivity
module Pipeline = Fastflip.Pipeline
module Store = Fastflip.Store
module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry

let m_replays = Telemetry.counter "detect.coverage.replays"
let m_work = Telemetry.counter "detect.coverage.work"
let m_cache_hits = Telemetry.counter "detect.coverage.cache_hits"
let m_cache_misses = Telemetry.counter "detect.coverage.cache_misses"

type t = {
  c_section : int;
  c_detectors : Detector.t array;
  c_classes : (Eqclass.t * int) array;
  c_covered : int array;
  c_replays : int;
  c_work : int;
  c_cached : bool;
}

let covered_of_masks detectors class_masks =
  let covered = Array.make (Array.length detectors) 0 in
  Array.iter
    (fun (cls, mask) ->
      let size = Eqclass.size cls in
      Array.iteri
        (fun j _ -> if mask land (1 lsl j) <> 0 then covered.(j) <- covered.(j) + size)
        detectors)
    class_masks;
  covered

(* --- store encoding ---------------------------------------------------

   A coverage measurement is persisted as an ordinary campaign record in
   the coverage key space: class i's outcome is [S_sdc] with one
   (detector index, 1.0) pair per fired detector. The sensitivity slot
   is an empty spec for the section. Decoding validates the structure
   against the current class list and detector count; any mismatch is a
   miss, never a wrong answer. *)

let dummy_sensitivity section_index =
  {
    Sensitivity.section_index;
    input_buffers = [||];
    output_buffers = [||];
    k = [||];
    samples_used = 0;
    work = 0;
  }

let encode_record key ~section_index ~work (class_masks : (Eqclass.t * int) array) =
  let s_classes =
    Array.map
      (fun (cls, mask) ->
        let fired = ref [] in
        for j = 62 downto 0 do
          if mask land (1 lsl j) <> 0 then fired := (j, 1.0) :: !fired
        done;
        (cls, Outcome.S_sdc (Array.of_list !fired)))
      class_masks
  in
  {
    Store.rec_key = key;
    rec_campaign =
      {
        Campaign.section_index;
        s_classes;
        s_work = work;
        s_injections = Array.length class_masks;
        s_sites = Eqclass.total_sites (Array.to_list (Array.map fst class_masks));
      };
    rec_sensitivity = dummy_sensitivity section_index;
    rec_work = work;
  }

let same_class (a : Eqclass.t) (b : Eqclass.t) =
  Site.compare_pc (Eqclass.pc a) (Eqclass.pc b) = 0
  && Eqclass.operand a = Eqclass.operand b
  && a.Eqclass.bit = b.Eqclass.bit
  && Array.length (Eqclass.members a) = Array.length (Eqclass.members b)

let decode_record (record : Store.section_record) ~n_detectors
    (classes : Eqclass.t array) =
  let stored = record.Store.rec_campaign.Campaign.s_classes in
  if Array.length stored <> Array.length classes then None
  else
    let ok = ref true in
    let masks =
      Array.mapi
        (fun i (cls, outcome) ->
          if not (same_class cls classes.(i)) then ok := false;
          match outcome with
          | Outcome.S_detected _ ->
            ok := false;
            (classes.(i), 0)
          | Outcome.S_sdc fired ->
            let mask = ref 0 in
            Array.iter
              (fun (j, _) ->
                if j < 0 || j >= n_detectors then ok := false
                else mask := !mask lor (1 lsl j))
              fired;
            (classes.(i), !mask))
        stored
    in
    if !ok then Some masks else None

(* --- pilot replay ----------------------------------------------------- *)

(* The entry-side sum a Linear detector compares against is the golden
   entry sum of its input buffer — except under a Mem_flip injection
   into that very buffer, where the flip's effect on the sum is applied
   analytically (the engines flip the element before executing, so the
   check must see the same entry the replay saw). *)
let entry_sum_under section injection buffer ~base =
  match injection with
  | Replay.Fault _ -> base
  | Replay.Mem_flip { Replay.mf_buffer; mf_elem; mf_bits } ->
    if mf_buffer <> buffer then base
    else
      let entry = section.Golden.entry_state.(buffer) in
      if mf_elem < 0 || mf_elem >= Array.length entry then base
      else
        let old_v = entry.(mf_elem) in
        let new_v =
          List.fold_left (fun v b -> Value.flip_bit v b) old_v mf_bits
        in
        let scalar v =
          match v with Value.Float x -> x | Value.Int i -> Int64.to_float i
        in
        base -. scalar old_v +. scalar new_v

let measure ?(pool = Pool.serial) ?backing
    (config : Pipeline.config) golden ~section_index ~detectors ~classes =
  Telemetry.span "detect.coverage"
    ~attrs:[ ("section", string_of_int section_index) ]
  @@ fun () ->
  let n_detectors = Array.length detectors in
  if n_detectors > 62 then
    invalid_arg "Coverage.measure: at most 62 detectors per section";
  let section = golden.Golden.sections.(section_index) in
  let classes = Array.of_list classes in
  let key =
    Pipeline.coverage_key config section
      ~detector_hash:(Detector.spec_hash [| detectors |])
  in
  let cached =
    match backing with
    | None -> None
    | Some (b : Pipeline.backing) -> (
      match b.Pipeline.lookup key with
      | None -> None
      | Some record -> decode_record record ~n_detectors classes)
  in
  match cached with
  | Some class_masks ->
    Telemetry.incr m_cache_hits;
    {
      c_section = section_index;
      c_detectors = detectors;
      c_classes = class_masks;
      c_covered = covered_of_masks detectors class_masks;
      c_replays = 0;
      c_work = 0;
      c_cached = true;
    }
  | None ->
    Telemetry.incr m_cache_misses;
    let model = config.Pipeline.campaign.Campaign.model in
    let timeout_factor = config.Pipeline.campaign.Campaign.timeout_factor in
    let burst = Fault_model.reg_burst model in
    (* capture the union of checked buffers once per replay *)
    let capture_idx =
      Array.of_list
        (List.sort_uniq compare
           (Array.to_list (Array.map (fun d -> d.Detector.d_buffer) detectors)))
    in
    let slot_of buffer =
      let rec go i = if capture_idx.(i) = buffer then i else go (i + 1) in
      go 0
    in
    let base_entry_sums =
      Array.map
        (fun d ->
          match d.Detector.d_form with
          | Detector.Linear { input; _ } ->
            Detector.sum section.Golden.entry_state.(input)
          | Detector.Finite | Detector.Range _ -> 0.0)
        detectors
    in
    let run_one (cls : Eqclass.t) =
      let injection = Site.replay_injection ~model (Eqclass.pilot cls) in
      let replay, captured =
        Replay.run_section_capture ~burst golden section injection
          ~timeout_factor ~buffers:capture_idx
      in
      let mask = ref 0 in
      (match captured with
      | None -> ()  (* anomalous replay: detected by cheaper means, mask 0 *)
      | Some buffers ->
        Array.iteri
          (fun j (d : Detector.t) ->
            let entry_sum =
              match d.Detector.d_form with
              | Detector.Linear { input; _ } ->
                entry_sum_under section injection input ~base:base_entry_sums.(j)
              | Detector.Finite | Detector.Range _ -> 0.0
            in
            if Detector.fires d ~entry_sum buffers.(slot_of d.Detector.d_buffer)
            then mask := !mask lor (1 lsl j))
          detectors);
      (!mask, replay.Replay.s_executed)
    in
    let results = Pool.map_array pool run_one classes in
    let work = Array.fold_left (fun acc (_, w) -> acc + w) 0 results in
    let class_masks =
      Array.mapi (fun i (mask, _) -> (classes.(i), mask)) results
    in
    Telemetry.add m_replays (Array.length classes);
    Telemetry.add m_work work;
    (match backing with
    | None -> ()
    | Some b ->
      b.Pipeline.publish (encode_record key ~section_index ~work class_masks));
    {
      c_section = section_index;
      c_detectors = detectors;
      c_classes = class_masks;
      c_covered = covered_of_masks detectors class_masks;
      c_replays = Array.length classes;
      c_work = work;
      c_cached = false;
    }
