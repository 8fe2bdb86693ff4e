(** Rendering of the [fastflip analyze] report.

    Factored out of the CLI so the one-shot command and the serve daemon
    share one implementation: a daemon response is byte-identical to the
    one-shot CLI's stdout {e by construction}, and the server smoke test
    holds both to that with a literal [diff]. *)

val analysis : target:float -> Fastflip.Pipeline.analysis -> string
(** Exactly what [fastflip analyze] prints for this analysis and knapsack
    target: reuse/work counters, the end-to-end SDC specification, the
    per-instruction value/cost table, and the selection for [target].
    A [target] outside [0, 1] selects and is echoed as its clamped
    value, so [-t 1e300] prints exactly what [-t 1.0] prints. *)
