(* The traced analysis: [Pipeline.analyze] rebuilt from the public
   function of each layer, with every call into a layer timed from outside
   on the monotonic clock. No layer call nests inside another, so a call's
   duration is its self time. The suite checks that the result equals the
   real [Pipeline.analyze] output (valuation and knapsack solution) and
   that the rendered report matches the committed digest, so the numbers
   attributed here belong to the same computation the untraced runs time. *)

module Pipeline = Fastflip.Pipeline
module Store = Fastflip.Store
module Campaign = Ff_inject.Campaign
module Eqclass = Ff_inject.Eqclass
module Prover = Ff_inject.Prover
module Sensitivity = Ff_sensitivity.Sensitivity
module Hashing = Ff_support.Hashing
module Rng = Ff_support.Rng

let now () = Bechamel.Toolkit.Monotonic_clock.get () *. 1e-9

type layer =
  | Frontend
  | Golden
  | Eqclass_enum
  | Prove
  | Replay
  | Sensitivity_sampling
  | Propagate
  | Valuation
  | Knapsack
  | Report
  | Store_load
  | Store_save
  | Store_lookup
  | Serve_cache
  | Serve_transport

let layers =
  [|
    Frontend;
    Golden;
    Eqclass_enum;
    Prove;
    Replay;
    Sensitivity_sampling;
    Propagate;
    Valuation;
    Knapsack;
    Report;
    Store_load;
    Store_save;
    Store_lookup;
    Serve_cache;
    Serve_transport;
  |]

let index = function
  | Frontend -> 0
  | Golden -> 1
  | Eqclass_enum -> 2
  | Prove -> 3
  | Replay -> 4
  | Sensitivity_sampling -> 5
  | Propagate -> 6
  | Valuation -> 7
  | Knapsack -> 8
  | Report -> 9
  | Store_load -> 10
  | Store_save -> 11
  | Store_lookup -> 12
  | Serve_cache -> 13
  | Serve_transport -> 14

let name = function
  | Frontend -> "frontend"
  | Golden -> "golden"
  | Eqclass_enum -> "eqclass"
  | Prove -> "prover"
  | Replay -> "replay"
  | Sensitivity_sampling -> "sensitivity"
  | Propagate -> "propagate"
  | Valuation -> "valuation"
  | Knapsack -> "knapsack"
  | Report -> "report"
  | Store_load -> "store.load"
  | Store_save -> "store.save"
  | Store_lookup -> "store.lookup"
  | Serve_cache -> "serve.cache"
  | Serve_transport -> "serve.transport"

(* Self seconds per layer plus the work counts measured at the same
   boundaries. *)
type acc = {
  self : float array;
  mutable dyn_instr : int;
  mutable classes : int;
  mutable proved : int;
  mutable injections : int;
  mutable replay_work : int;
  mutable sens_work : int;
  mutable items : int;
  mutable dp_cells : int;
  mutable sections : int;
  mutable reused : int;
  mutable appended : int;
  mutable work : int;
}

let create () =
  {
    self = Array.make (Array.length layers) 0.0;
    dyn_instr = 0;
    classes = 0;
    proved = 0;
    injections = 0;
    replay_work = 0;
    sens_work = 0;
    items = 0;
    dp_cells = 0;
    sections = 0;
    reused = 0;
    appended = 0;
    work = 0;
  }

let add_into dst src =
  Array.iteri (fun i s -> dst.self.(i) <- dst.self.(i) +. s) src.self;
  dst.dyn_instr <- dst.dyn_instr + src.dyn_instr;
  dst.classes <- dst.classes + src.classes;
  dst.proved <- dst.proved + src.proved;
  dst.injections <- dst.injections + src.injections;
  dst.replay_work <- dst.replay_work + src.replay_work;
  dst.sens_work <- dst.sens_work + src.sens_work;
  dst.items <- dst.items + src.items;
  dst.dp_cells <- dst.dp_cells + src.dp_cells;
  dst.sections <- dst.sections + src.sections;
  dst.reused <- dst.reused + src.reused;
  dst.appended <- dst.appended + src.appended;
  dst.work <- dst.work + src.work

let self acc layer = acc.self.(index layer)
let total_self acc = Array.fold_left ( +. ) 0.0 acc.self
let charge acc layer seconds = acc.self.(index layer) <- acc.self.(index layer) +. seconds

let time acc layer f =
  let t0 = now () in
  let result = f () in
  charge acc layer (now () -. t0);
  result

(* [f] timed into [acc] when tracing, called bare otherwise. *)
let maybe_time acc layer f =
  match acc with None -> f () | Some acc -> time acc layer f

(* One section's campaign and sensitivity estimate, as
   [Pipeline.analyze] computes them: enumerate the classes, let the prover
   decide what it can, replay the residual classes with the prover off,
   and merge both into the record the pipeline would have produced. *)
let analyze_section acc (config : Pipeline.config) golden ~section_index
    ~(key : Store.key) =
  let cc = config.Pipeline.campaign in
  let model = cc.Campaign.model in
  let section = golden.Ff_vm.Golden.sections.(section_index) in
  let classes =
    time acc Eqclass_enum (fun () -> Eqclass.for_section ~model section cc.Campaign.bits)
  in
  let class_array = Array.of_list classes in
  let proofs =
    time acc Prove (fun () ->
        Prover.prove_section golden ~section_index
          ~timeout_factor:cc.Campaign.timeout_factor ~model cc.Campaign.prove
          class_array)
  in
  let residual = List.filteri (fun i _ -> Option.is_none proofs.(i)) classes in
  let replayed =
    time acc Replay (fun () ->
        Campaign.run_section ~classes:residual golden ~section_index
          { cc with Campaign.prove = Prover.off })
  in
  let next = ref 0 in
  let s_classes =
    Array.mapi
      (fun i cls ->
        match proofs.(i) with
        | Some outcome -> (cls, outcome)
        | None ->
          let slot = replayed.Campaign.s_classes.(!next) in
          incr next;
          slot)
      class_array
  in
  let campaign =
    {
      Campaign.section_index;
      s_classes;
      s_work = replayed.Campaign.s_work;
      s_injections = replayed.Campaign.s_injections;
      s_sites = Eqclass.total_sites classes;
    }
  in
  let rng =
    Rng.create
      (Hashing.combine config.Pipeline.seed
         (Hashing.combine key.Store.code_hash key.Store.input_hash))
  in
  let sensitivity =
    time acc Sensitivity_sampling (fun () ->
        Sensitivity.estimate ~samples:config.Pipeline.sensitivity_samples
          ~max_perturbation:config.Pipeline.max_perturbation
          ~safety_factor:config.Pipeline.safety_factor ~rng golden ~section_index)
  in
  acc.classes <- acc.classes + Array.length class_array;
  acc.proved <- acc.proved + (Array.length class_array - List.length residual);
  acc.injections <- acc.injections + campaign.Campaign.s_injections;
  acc.replay_work <- acc.replay_work + campaign.Campaign.s_work;
  acc.sens_work <- acc.sens_work + sensitivity.Sensitivity.work;
  {
    Store.rec_key = key;
    rec_campaign = campaign;
    rec_sensitivity = sensitivity;
    rec_work = campaign.Campaign.s_work + sensitivity.Sensitivity.work;
  }

(* [Pipeline.analyze ?store config program], layer by layer. Sections are
   visited in schedule order with the same lookup, reuse and charging
   rules as the pipeline, so the work and reuse counters agree too. *)
let analyze ?store acc config program =
  let prepared = time acc Golden (fun () -> Pipeline.prepare config program) in
  let golden = prepared.Pipeline.p_golden in
  acc.dyn_instr <- acc.dyn_instr + golden.Ff_vm.Golden.total_dyn;
  let fresh = Hashtbl.create 16 in
  let work = ref 0 and total = ref 0 and reused = ref 0 and analyzed = ref 0 in
  let sections =
    Array.mapi
      (fun section_index key ->
        let record =
          match (store, Hashtbl.find_opt fresh key) with
          | None, Some record ->
            (* Without a store the pipeline charges a repeated key again. *)
            incr analyzed;
            work := !work + record.Store.rec_work;
            record
          | _ -> (
            let hit =
              Option.bind store (fun st ->
                  time acc Store_lookup (fun () -> Store.find st key))
            in
            match hit with
            | Some record ->
              incr reused;
              record
            | None ->
              let record = analyze_section acc config golden ~section_index ~key in
              Option.iter
                (fun st -> time acc Store_lookup (fun () -> Store.add st record))
                store;
              Hashtbl.replace fresh key record;
              incr analyzed;
              work := !work + record.Store.rec_work;
              record)
        in
        total := !total + record.Store.rec_work;
        (* The pipeline rebases a record reused at another schedule index;
           the suite's programs never need that, and the identity check
           would catch it if one did. *)
        if record.Store.rec_campaign.Campaign.section_index <> section_index then
          failwith "traced analysis: a reused section moved schedule index";
        record)
      prepared.Pipeline.p_keys
  in
  let specs = Array.map (fun r -> r.Store.rec_sensitivity) sections in
  let propagation =
    time acc Propagate (fun () -> Ff_chisel.Propagate.run golden ~specs)
  in
  let valuation =
    time acc Valuation (fun () ->
        Fastflip.Valuation.of_fastflip golden ~propagation
          ~sections:(Array.map (fun r -> r.Store.rec_campaign) sections)
          ~epsilon:config.Pipeline.epsilon)
  in
  let items, solution =
    time acc Knapsack (fun () ->
        let items = Fastflip.Knapsack.items_of_valuation valuation in
        (items, Fastflip.Knapsack.solve items))
  in
  acc.items <- acc.items + List.length items;
  acc.dp_cells <-
    acc.dp_cells + (List.length items * (Fastflip.Knapsack.max_value solution + 1));
  acc.sections <- acc.sections + Array.length sections;
  acc.reused <- acc.reused + !reused;
  acc.work <- acc.work + !work;
  {
    Pipeline.golden;
    dataflow = prepared.Pipeline.p_dataflow;
    sections;
    propagation;
    valuation;
    solution;
    work = !work;
    total_section_work = !total;
    sections_reused = !reused;
    sections_analyzed = !analyzed;
  }
