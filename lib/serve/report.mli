(** Rendering of the [fastflip analyze] report.

    Factored out of the CLI so the one-shot command and the serve daemon
    share one implementation: a daemon response is byte-identical to the
    one-shot CLI's stdout {e by construction}, and the server smoke test
    holds both to that with a literal [diff].

    A report is a target-independent head (counters, the end-to-end SDC
    specification, the per-instruction value/cost table) followed by the
    knapsack selection for one target. {!basis} renders the head once
    and keeps only what a selection needs, so a warm {!Cache} entry
    holds neither the golden run nor the valuation's class labels. *)

type basis
(** The rendered head, the solved knapsack and the valuation's total
    value and total cost. *)

val basis : Fastflip.Pipeline.analysis -> basis

val render : basis -> target:float -> string
(** The head, then the selection for [target]: one
    {!Fastflip.Knapsack.select}, O(#items · log runs). *)

val analysis : target:float -> Fastflip.Pipeline.analysis -> string
(** [render (basis a) ~target]: exactly what [fastflip analyze] prints
    for this analysis and knapsack target — reuse/work counters, the
    end-to-end SDC specification, the per-instruction value/cost table,
    and the selection for [target]. A [target] outside [0, 1] selects
    and is echoed as its clamped value, so [-t 1e300] prints exactly
    what [-t 1.0] prints. *)
