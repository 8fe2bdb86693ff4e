(** IR optimization passes.

    All passes are semantics-preserving for error-free executions (which
    define the golden trace the analyses run against). They matter to the
    reproduction for two reasons: they keep kernel traces small, and they
    are the compiler half of the "developers or compilers optimize the
    program" evolution story of the paper (§5.5).

    Golden-trap caveat: an instruction that could trap (integer division,
    float-to-int conversion) is removed when dead and folded only when
    provably non-trapping, so a program whose golden run traps may stop
    trapping after optimization. Benchmarks never rely on golden traps
    ({!Ff_vm.Golden.run} rejects them). *)

val constant_fold : Ff_ir.Kernel.t -> Ff_ir.Kernel.t
(** Local constant propagation and folding. The register-constant map
    resets at branch targets; instruction count and labels are
    unchanged (a folded [Br] becomes a [Jmp] in place). An arithmetic,
    compare or cast instruction whose sources are all known is evaluated
    by {!Ff_vm.Unboxed.step}, the engine's own dispatch, over a packed
    one-instruction program ({!Ff_vm.Decode.pack}), so a folded value is
    exactly what a run computes; an instruction that would trap is left
    in place. *)

val copy_propagate : Ff_ir.Kernel.t -> Ff_ir.Kernel.t
(** Local (basic-block) copy propagation through [Mov]s; the copies
    themselves become dead and fall to {!dead_code_elimination}. *)

val simplify_jumps : Ff_ir.Kernel.t -> Ff_ir.Kernel.t
(** Collapse [Br c, l, l] into [Jmp l] and follow jump-to-jump chains. *)

val remove_unreachable : Ff_ir.Kernel.t -> Ff_ir.Kernel.t
(** Delete instructions not reachable from the entry, remapping labels. *)

val common_subexpressions : Ff_ir.Kernel.t -> Ff_ir.Kernel.t
(** Local (basic-block) common-subexpression elimination: a pure
    instruction recomputing an available (opcode, operands) value becomes
    a [Mov] from the register that already holds it. NOT part of
    {!optimize}: the paper's Small modifications are hand-applied CSE, and
    folding it into the default pipeline would erase the very difference
    between the None and Small benchmark versions. Offered for clients
    that want a more aggressive compiler. *)

(** Static backward register liveness over a kernel's CFG (use/def from
    {!Ff_ir.Instr.srcs}/{!Ff_ir.Instr.dst}, the fall-through or branch
    targets as successors). Its one user is {!dead_code_elimination}.

    Each pc's register set is a flat bitset of ⌈nregs / 63⌉ ints
    ([Sys.int_size] bits per word), so the fixpoint moves a word of
    registers per step and a table holds n × ⌈nregs / 63⌉ words. *)
module Liveness : sig
  type t

  val of_kernel : Ff_ir.Kernel.t -> t
  (** The least fixpoint of live_in(pc) = use(pc) ∪ (live_out(pc) \ def(pc)),
      live_out(pc) = ∪ live_in(succ), by reverse-order sweeps until no
      word changes. The kernel must be well-formed
      ({!Ff_ir.Kernel.validate}). *)

  val live_out : t -> pc:int -> reg:int -> bool
  (** May the value [reg] holds right after [pc] executed be read before
      being overwritten, on some path from [pc]? One bit test. *)
end

val dead_code_elimination : Ff_ir.Kernel.t -> Ff_ir.Kernel.t
(** Global liveness-based removal of pure instructions whose destination
    is never read ({!Liveness}), iterated to a fixpoint, with label
    remapping. The kernel must be well-formed ({!Ff_ir.Kernel.validate}).
    After the last pass every remaining destination is live-out. *)

val optimize : Ff_ir.Kernel.t -> Ff_ir.Kernel.t
(** The standard pipeline: fold, copy-propagate, simplify, prune, DCE —
    run twice, on a well-formed kernel like {!dead_code_elimination}. *)
