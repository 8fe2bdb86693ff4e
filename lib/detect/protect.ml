module Golden = Ff_vm.Golden
module Site = Ff_inject.Site
module Pipeline = Fastflip.Pipeline
module Valuation = Fastflip.Valuation
module Knapsack = Fastflip.Knapsack
module Hashing = Ff_support.Hashing
module Pool = Ff_support.Pool
module Table = Ff_support.Table
module Telemetry = Ff_support.Telemetry

let m_runs = Telemetry.counter "detect.protect.runs"
let m_work = Telemetry.counter "detect.protect.work"

type t = {
  r_synth : Synthesize.t option;
  r_coverages : Coverage.t list;
  r_select : Select.t;
  r_target : float;
  r_mixed : Select.selection;
  r_pure : Knapsack.selection;
  r_work : int;
}

(* the synthesis RNG stream is the analysis seed in a reserved lane, so
   protect results are reproducible from the analysis config alone *)
let synth_seed (config : Pipeline.config) =
  Hashing.combine config.Pipeline.seed 0x6465746563L

let run ?(pool = Pool.serial) ?backing ?(detectors_enabled = true)
    ?max_detectors ?focus (config : Pipeline.config)
    (analysis : Pipeline.analysis) ~target =
  Telemetry.span "detect.protect" @@ fun () ->
  Telemetry.incr m_runs;
  let golden = analysis.Pipeline.golden in
  let valuation = analysis.Pipeline.valuation in
  let synth, coverages =
    if not detectors_enabled then (None, [])
    else begin
      let specs =
        Array.map
          (fun (r : Fastflip.Store.section_record) -> r.Fastflip.Store.rec_sensitivity)
          analysis.Pipeline.sections
      in
      let synth =
        Synthesize.run ~pool ~max_perturbation:config.Pipeline.max_perturbation
          ~safety_factor:config.Pipeline.safety_factor ?focus
          ~seed:(synth_seed config) golden ~specs
      in
      let coverages =
        List.filter_map
          (fun si ->
            let candidates = synth.Synthesize.candidates.(si) in
            let candidates =
              if Array.length candidates > 62 then Array.sub candidates 0 62
              else candidates
            in
            let bad = Valuation.bad_labels_in_section valuation ~section:si in
            if Array.length candidates = 0 || bad = [] then None
            else
              Some
                (Coverage.measure ~pool ?backing config golden
                   ~section_index:si ~detectors:candidates
                   ~classes:(List.map (fun l -> l.Valuation.cls) bad)))
          (List.init (Array.length golden.Golden.sections) Fun.id)
      in
      (Some synth, coverages)
    end
  in
  let select = Select.build ?max_detectors valuation coverages in
  let target_value =
    Knapsack.integer_target ~total:select.Select.t_total_value target
  in
  let mixed = Select.selection_at select ~target:target_value in
  let pure = Knapsack.select select.Select.t_pure ~target:target_value in
  let work =
    (match synth with Some s -> s.Synthesize.work | None -> 0)
    + List.fold_left (fun acc c -> acc + c.Coverage.c_work) 0 coverages
  in
  Telemetry.add m_work work;
  {
    r_synth = synth;
    r_coverages = coverages;
    r_select = select;
    r_target = target;
    r_mixed = mixed;
    r_pure = pure;
    r_work = work;
  }

let pct part total = if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let report t =
  let buf = Buffer.create 1024 in
  let total = t.r_select.Select.t_total_value in
  (match t.r_synth with
  | None -> Buffer.add_string buf "detectors disabled: pure duplication knapsack\n"
  | Some s ->
    let n_candidates =
      Array.fold_left (fun acc a -> acc + Array.length a) 0 s.Synthesize.candidates
    in
    Buffer.add_string buf
      (Printf.sprintf
         "detector synthesis: %d candidates survived (%d dropped on %d benign \
          validation runs, %d false-positive fires)\n"
         n_candidates s.Synthesize.dropped s.Synthesize.validation_runs
         s.Synthesize.fp_fires);
    Buffer.add_string buf
      (Printf.sprintf
         "coverage: %d sections measured, %d pilot replays (%d cached), %d \
          instructions of replay work\n"
         (List.length t.r_coverages)
         (List.fold_left (fun a c -> a + c.Coverage.c_replays) 0 t.r_coverages)
         (List.length (List.filter (fun c -> c.Coverage.c_cached) t.r_coverages))
         (List.fold_left (fun a c -> a + c.Coverage.c_work) 0 t.r_coverages)));
  let detectors = t.r_select.Select.t_detectors in
  if Array.length detectors > 0 then begin
    let tbl =
      Table.create ~title:"candidate detectors (coverage-ranked)"
        [
          ("#", Table.Right); ("Detector", Table.Left); ("Cost", Table.Right);
          ("Covered sites", Table.Right); ("Of total", Table.Right);
        ]
    in
    Array.iteri
      (fun i d ->
        Table.add_row tbl
          [
            string_of_int i;
            Detector.describe d;
            string_of_int d.Detector.d_cost;
            string_of_int t.r_select.Select.t_covered.(i);
            Printf.sprintf "%.1f%%" (pct t.r_select.Select.t_covered.(i) total);
          ])
      detectors;
    Buffer.add_string buf (Table.render tbl);
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf
    (Printf.sprintf "pareto front: %d points over %d detector subsets\n"
       (Array.length t.r_select.Select.t_front)
       (1 lsl Array.length detectors));
  Buffer.add_string buf
    (Printf.sprintf
       "target %.2f of %d SDC-Bad sites:\n  pure duplication: value %d cost %d \
        (%d pcs)\n  mixed           : value %d cost %d (%d detectors + %d pcs)\n"
       t.r_target total t.r_pure.Knapsack.value t.r_pure.Knapsack.cost
       (List.length t.r_pure.Knapsack.pcs)
       t.r_mixed.Select.sel_value t.r_mixed.Select.sel_cost
       (Array.length t.r_mixed.Select.sel_detectors)
       (List.length t.r_mixed.Select.sel_dup.Knapsack.pcs));
  (if t.r_mixed.Select.sel_cost < t.r_pure.Knapsack.cost then
     Buffer.add_string buf
       (Printf.sprintf "  detectors save %.1f%% of the protection cost\n"
          (100.0
          *. (1.0
             -. float_of_int t.r_mixed.Select.sel_cost
                /. float_of_int (max 1 t.r_pure.Knapsack.cost))))
   else if Array.length detectors > 0 then
     Buffer.add_string buf
       "  duplication alone is optimal at this target\n");
  Buffer.contents buf

let pareto_json t =
  let open Ff_support.Json in
  let select = t.r_select and mixed = t.r_mixed and pure = t.r_pure in
  let detector i d =
    let form =
      match d.Detector.d_form with
      | Detector.Finite -> "finite"
      | Detector.Range _ -> "range"
      | Detector.Linear _ -> "linear"
    in
    Obj
      [
        ("index", Int i);
        ("section", Int d.Detector.d_section);
        ("buffer", Int d.Detector.d_buffer);
        ("form", Str form);
        ("cost", Int d.Detector.d_cost);
        ("covered", Int select.Select.t_covered.(i));
      ]
  in
  let point (p : Select.point) =
    Obj
      [
        ("value", Int p.Select.p_value);
        ("cost", Int p.Select.p_cost);
        ("mask", Int p.Select.p_mask);
        ("dup_value", Int p.Select.p_dup_value);
      ]
  in
  let synthesis s =
    let candidates = Array.fold_left (fun acc a -> acc + Array.length a) 0 in
    Obj
      [
        ("candidates", Int (candidates s.Synthesize.candidates));
        ("dropped", Int s.Synthesize.dropped);
        ("fp_fires", Int s.Synthesize.fp_fires);
        ("train_runs", Int s.Synthesize.train_runs);
        ("validation_runs", Int s.Synthesize.validation_runs);
      ]
  in
  to_string
    (Obj
       [
         ("schema", Str "fastflip.pareto/1");
         ("target", shortest t.r_target);
         ("total_value", Int select.Select.t_total_value);
         ("detectors", Arr (List.mapi detector (Array.to_list select.Select.t_detectors)));
         ("front", Arr (List.map point (Array.to_list select.Select.t_front)));
         ( "pure_front",
           Arr
             (List.map
                (fun (v, c) -> Obj [ ("value", Int v); ("cost", Int c) ])
                (Select.pure_points select)) );
         ( "mixed",
           Obj
             [
               ("value", Int mixed.Select.sel_value);
               ("cost", Int mixed.Select.sel_cost);
               ("mask", Int mixed.Select.sel_mask);
               ("detectors", Int (Array.length mixed.Select.sel_detectors));
               ("duplicated_pcs", Int (List.length mixed.Select.sel_dup.Knapsack.pcs));
             ] );
         ( "pure",
           Obj
             [
               ("value", Int pure.Knapsack.value);
               ("cost", Int pure.Knapsack.cost);
               ("duplicated_pcs", Int (List.length pure.Knapsack.pcs));
             ] );
         ("synthesis", Option.fold ~none:Null ~some:synthesis t.r_synth);
         ("work", Int t.r_work);
       ])
