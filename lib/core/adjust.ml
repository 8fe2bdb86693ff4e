type state = {
  original_target : float;
  adjusted_target : float;
  m_adj : int;
  p_adj : int;
}

let achieved_at ff ~ground_truth integer_target =
  let selection = Knapsack.select ff.Pipeline.solution ~target:integer_target in
  Valuation.value_fraction ground_truth ~selected:selection.Knapsack.pcs

let compute_adjusted_target ~ff ~ground_truth ~target =
  let total = Knapsack.max_value ff.Pipeline.solution in
  if total = 0 then 1.0
  else begin
    let achieves t = achieved_at ff ~ground_truth t >= target in
    if not (achieves total) then 1.0
    else begin
      (* Binary search for the smallest integer target that achieves the
         ground-truth value, then walk down to absorb non-monotone
         wiggles in the achieved value. *)
      let lo = ref 0 and hi = ref total in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if achieves mid then hi := mid else lo := mid
      done;
      let best = ref (if achieves !lo then !lo else !hi) in
      let step = max 1 (total / 2048) in
      let continue = ref true in
      while !continue && !best > 0 do
        let candidate = max 0 (!best - step) in
        if achieves candidate then best := candidate else continue := false
      done;
      float_of_int !best /. float_of_int total
    end
  end

let fresh ?(p_adj = 5) ~ff ~ground_truth ~target () =
  {
    original_target = target;
    adjusted_target = compute_adjusted_target ~ff ~ground_truth ~target;
    m_adj = 0;
    p_adj;
  }

let after_modification state = { state with m_adj = state.m_adj + 1 }

let needs_refresh state = state.m_adj >= state.p_adj
