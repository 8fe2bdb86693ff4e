(** Protection cost models (paper §4.8, §5.3, §7).

    FastFlip takes the cost function c(pc) as an external input; the paper
    names several concrete detectors. Three are implemented here:
    {ul
    {- {!Per_instruction}: SWIFT-style duplication — each protected
       instruction costs its dynamic instance count (the default, §5.3);}
    {- {!Drift_clustered}: DRIFT-style clustered checking — duplicated
       computational instructions share comparison instructions, reducing
       their marginal cost; memory and control instructions still pay
       full price (a linearized model of [48]);}
    {- {!Per_kernel_block}: coarse-grained task-level detectors ([23],
       [1; 2; 29]) — protection is bought per kernel, covering every
       static instruction in it at once.}}

    Every model yields plain knapsack items, so the §4.6 selection runs
    unchanged; the cost-model ablation in the benchmark harness compares
    the protection costs the three models achieve for the same target. *)

type t =
  | Per_instruction
  | Drift_clustered of float
    (** discount in [0, 1) applied to pure computational instructions;
        0.3 is DRIFT's reported check-consolidation saving *)
  | Per_kernel_block

val items :
  t -> valuation:Valuation.t -> golden:Ff_vm.Golden.t -> Knapsack.item list
(** Knapsack items under the model. For {!Per_kernel_block} the item pcs
    are synthetic ((kernel, -1)); use {!expand_block_selection} to map a
    selection back to real instructions. *)

val expand_block_selection :
  golden:Ff_vm.Golden.t -> Ff_inject.Site.pc list -> Ff_inject.Site.pc list
(** Replace each synthetic block pc by every static instruction of that
    kernel that appears in the golden trace. Non-synthetic pcs pass
    through. *)
