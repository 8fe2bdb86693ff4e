module Pipeline = Fastflip.Pipeline
module Valuation = Fastflip.Valuation
module Knapsack = Fastflip.Knapsack
module Site = Ff_inject.Site
module Table = Ff_support.Table

type basis = {
  head : string;
  solution : Knapsack.solution;
  total_value : int;
  total_cost : int;
}

let basis (a : Pipeline.analysis) =
  let valuation = a.Pipeline.valuation in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "sections reused from the store: %d/%d\n" a.Pipeline.sections_reused
    (a.Pipeline.sections_reused + a.Pipeline.sections_analyzed);
  add "injection + sensitivity work: %d simulated instructions\n" a.Pipeline.work;
  add "total SDC-Bad value mass: %d sites over %d dynamic instructions\n\n"
    valuation.Valuation.total_value valuation.Valuation.total_cost;
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
          string_of_int (Valuation.cost_of valuation pc);
        ])
    valuation.Valuation.values;
  Buffer.add_string buf (Table.render t);
  Buffer.add_char buf '\n';
  {
    head = Buffer.contents buf;
    solution = a.Pipeline.solution;
    total_value = valuation.Valuation.total_value;
    total_cost = valuation.Valuation.total_cost;
  }

(* The selection tail. [Pipeline.select] and [Valuation.cost_fraction]
   on the basis alone: the selection's cost is the same integer sum of
   c(pc) that [cost_fraction] takes over its pcs. *)
let render b ~target =
  let selection =
    Knapsack.select b.solution
      ~target:(Knapsack.integer_target ~total:b.total_value target)
  in
  let buf = Buffer.create (String.length b.head + 256) in
  Buffer.add_string buf b.head;
  (* the selection clamps the fraction to [0, 1]; so does the echo *)
  let shown = if target > 1.0 then 1.0 else if target < 0.0 then 0.0 else target in
  let fraction =
    if b.total_cost = 0 then 0.0
    else float_of_int selection.Knapsack.cost /. float_of_int b.total_cost
  in
  Printf.bprintf buf
    "\nknapsack selection for v_trgt = %.2f: %d instructions, cost %d dyn instrs (%.1f%% of trace)\n"
    shown
    (List.length selection.Knapsack.pcs)
    selection.Knapsack.cost (100.0 *. fraction);
  Printf.bprintf buf "selected: %s\n"
    (String.concat ", "
       (List.map (Format.asprintf "%a" Site.pp_pc) selection.Knapsack.pcs));
  Buffer.contents buf

let analysis ~target a = render (basis a) ~target
