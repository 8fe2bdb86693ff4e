(** 0-1 knapsack selection of instructions to protect (paper §4.6).

    Minimize total protection cost subject to total protection value ≥ a
    target, over the Pareto frontier of (value, cost) pairs. One
    {!solve} supports extraction at every target — FastFlip sweeps a
    range of targets (the ε-constraint method) and the adaptive target
    adjustment probes many candidates, all against the same solution. *)

type item = {
  pc : Ff_inject.Site.pc;
  value : int;  (** SDC-Bad site count at this pc; items with 0 value are
                    never selected *)
  cost : int;   (** dynamic instances of this pc *)
}

type solution

val solve : item list -> solution
(** Solve exactly, by the list DP of Nemhauser and Ullmann. Items are
    taken in pc order; item [i] merges the Pareto set P_{i-1} of
    (value, cost) over items [0 .. i-1] with its copy shifted by the
    item's (value, cost), keeping each pair whose cost strictly improves
    on every pair of larger value. O(Σ_i |P_{i-1}|) time (the
    [knapsack.pareto_points] counter), over four buffers of
    min(Σvalue, Σcost) + 1 cells that do not outlive the call. The
    result is the same as the DP over the value dimension: the cheapest
    cost of a value ≥ v is the step function of P_i. The solution
    retains, per item, the maximal runs of values the item improved, as
    descending inclusive bounds (8 bytes each; their sum is the
    [knapsack.take_bytes] counter), and the frontier {!points} reads: a
    bitset over the values plus the cost of each marked value. Raises
    [Invalid_argument] if an item's cost is negative. *)

val max_value : solution -> int
(** Σ of all item values: the largest reachable target. *)

type selection = {
  pcs : Ff_inject.Site.pc list;  (** chosen instructions, deterministic order *)
  value : int;                   (** Σ value over the selection *)
  cost : int;                    (** Σ cost over the selection *)
}

val integer_target : total:int -> float -> int
(** [integer_target ~total fraction] is the integer knapsack target for
    a protection-value fraction of [total]: [ceil (fraction × total)]
    clamped to [[0, total]], so a fraction above 1 selects like 1 and a
    negative one like 0. Raises [Invalid_argument] if [fraction] is not
    finite. *)

val select : solution -> target:int -> selection
(** Cheapest selection with [value ≥ min target (max_value)]; a
    non-positive target yields the empty selection. O(#items · log runs)
    per call: each item's take bit is a binary search over its runs. *)

val points : solution -> (int * int) list
(** The achievable (value, min-cost) frontier of the DP, ascending and
    strictly increasing in both coordinates, starting at [(0, 0)]. Each
    pair is achieved exactly — [select ~target:value] reconstructs the
    selection behind it at the stated cost. This is the per-solution
    Pareto front the mixed duplication-vs-detector optimizer merges
    across detector subsets. Read from the frontier {!solve} recorded:
    O(Σvalue) per call. *)

val items_of_valuation : Valuation.t -> item list
(** One item per pc that has any SDC-Bad value. *)
