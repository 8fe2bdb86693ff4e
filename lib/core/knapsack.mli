(** 0-1 knapsack selection of instructions to protect (paper §4.6).

    Minimize total protection cost subject to total protection value ≥ a
    target, by dynamic programming over the (integer) value dimension.
    One {!solve} supports extraction at every target — FastFlip sweeps a
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
(** Run the DP. Items are taken in pc order and item [i] sweeps only the
    values [1 .. S_i], where [S_i] is the sum of the values of items
    [0 .. i]: O(Σ_i S_i) time, at most Σvalue × #items, over a dp array
    of Σvalue + 1 cells ([knapsack.dp_cells]) that does not outlive the
    call. The solution retains, per item, the maximal runs of values the
    item improved, as descending inclusive bounds (8 bytes each; their
    sum is the [knapsack.take_bytes] counter), and the frontier
    {!points} reads: a bitset over the values plus the cost of each
    marked value. *)

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
