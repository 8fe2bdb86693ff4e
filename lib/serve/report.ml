module Pipeline = Fastflip.Pipeline
module Valuation = Fastflip.Valuation
module Knapsack = Fastflip.Knapsack
module Site = Ff_inject.Site
module Table = Ff_support.Table

let analysis ~target (a : Pipeline.analysis) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "sections reused from the store: %d/%d\n" a.Pipeline.sections_reused
    (a.Pipeline.sections_reused + a.Pipeline.sections_analyzed);
  add "injection + sensitivity work: %d simulated instructions\n" a.Pipeline.work;
  add "total SDC-Bad value mass: %d sites over %d dynamic instructions\n\n"
    a.Pipeline.valuation.Valuation.total_value
    a.Pipeline.valuation.Valuation.total_cost;
  Buffer.add_string buf
    (Format.asprintf "End-to-end SDC specification:@.%a@." Ff_chisel.Propagate.pp
       a.Pipeline.propagation);
  let t =
    Table.create ~title:"Per-instruction protection value and cost"
      [ ("pc", Table.Left); ("v(pc) sites", Table.Right); ("c(pc) dyn", Table.Right) ]
  in
  List.iter
    (fun (pc, v) ->
      Table.add_row t
        [
          Format.asprintf "%a" Site.pp_pc pc;
          string_of_int v;
          string_of_int (Valuation.cost_of a.Pipeline.valuation pc);
        ])
    a.Pipeline.valuation.Valuation.values;
  Buffer.add_string buf (Table.render t);
  Buffer.add_char buf '\n';
  let selection = Pipeline.select a ~target in
  (* the selection clamps the fraction to [0, 1]; so does the echo *)
  let shown = if target > 1.0 then 1.0 else if target < 0.0 then 0.0 else target in
  add
    "\nknapsack selection for v_trgt = %.2f: %d instructions, cost %d dyn instrs (%.1f%% of trace)\n"
    shown
    (List.length selection.Knapsack.pcs)
    selection.Knapsack.cost
    (100.0
    *. Valuation.cost_fraction a.Pipeline.valuation ~selected:selection.Knapsack.pcs);
  add "selected: %s\n"
    (String.concat ", "
       (List.map (Format.asprintf "%a" Site.pp_pc) selection.Knapsack.pcs));
  Buffer.contents buf
