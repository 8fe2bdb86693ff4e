(** The monolithic Approxilyzer-only baseline (paper §5.6).

    Treats the whole execution as one section: whole-trace equivalence
    classes, end-to-end injections, direct SDC-Bad labeling of the final
    outputs. No part of it is reusable across program versions — the
    whole campaign reruns every time, which is the cost FastFlip
    amortizes away. *)

type t = {
  golden : Ff_vm.Golden.t;
  result : Ff_inject.Campaign.baseline_result;
  valuation : Valuation.t;
  solution : Knapsack.solution;
  work : int;
}

val analyze :
  ?pool:Ff_support.Pool.t ->
  Ff_inject.Campaign.config -> epsilon:float -> Ff_vm.Golden.t -> t
(** With a [pool], the whole-trace campaign fans out over domains;
    results are bit-identical to the serial run for any width. *)

val revaluate : t -> epsilon:float -> t
(** Re-label stored outcomes under a different ε (no new injections). *)

val select : t -> target:float -> Knapsack.selection
(** Cheapest selection achieving a fractional target of the baseline's
    own value mass, converted by {!Knapsack.integer_target}. *)
