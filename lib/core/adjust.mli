(** Adaptive target adjustment (paper §4.10).

    FastFlip's labels are conservative (inter-section masking, sensitivity
    over-approximation), so selecting to its own target v_trgt can under-
    or over-shoot the value measured against the ground-truth monolithic
    labels. FastFlip therefore replaces v_trgt with the minimal adjusted
    v'_trgt whose selection achieves v_achv ≥ v_trgt under the baseline
    labels. The adjusted target is remembered and reused for modified
    versions until [p_adj] modifications have accumulated, at which point
    a fresh ground-truth comparison is due. *)

type state = {
  original_target : float;
  adjusted_target : float;  (** v'_trgt, as a fraction of FastFlip's own
                                value mass *)
  m_adj : int;              (** modifications since the last adjustment *)
  p_adj : int;              (** refresh threshold P_adj *)
}

val compute_adjusted_target :
  ff:Pipeline.analysis -> ground_truth:Valuation.t -> target:float -> float
(** Minimal v'_trgt (fraction of the FastFlip value mass) such that the
    knapsack selection at v'_trgt achieves ≥ [target] of the ground-truth
    value mass. Returns 1.0 when even protecting everything FastFlip
    values cannot reach the target (the remaining gap is value FastFlip's
    labels miss entirely). *)

val fresh :
  ?p_adj:int -> ff:Pipeline.analysis -> ground_truth:Valuation.t -> target:float -> unit -> state
(** Adjustment computed from a fresh simultaneous ground-truth run;
    [p_adj] defaults to 5. *)

val after_modification : state -> state
(** Reuse the adjusted target for a modified version; bumps m_adj. *)

val needs_refresh : state -> bool
(** m_adj ≥ p_adj: time to re-run the simultaneous ground-truth
    analysis. *)
