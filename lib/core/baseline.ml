open Ff_inject
module Golden = Ff_vm.Golden

type t = {
  golden : Golden.t;
  result : Campaign.baseline_result;
  valuation : Valuation.t;
  solution : Knapsack.solution;
  work : int;
}

let analyze ?pool config ~epsilon golden =
  let result = Campaign.run_baseline ?pool golden config in
  let valuation = Valuation.of_baseline golden ~baseline:result ~epsilon in
  let solution = Knapsack.solve (Knapsack.items_of_valuation valuation) in
  { golden; result; valuation; solution; work = result.Campaign.b_work }

let revaluate t ~epsilon =
  let valuation = Valuation.of_baseline t.golden ~baseline:t.result ~epsilon in
  let solution = Knapsack.solve (Knapsack.items_of_valuation valuation) in
  { t with valuation; solution }

let select t ~target =
  let total = t.valuation.Valuation.total_value in
  Knapsack.select t.solution ~target:(Knapsack.integer_target ~total target)
