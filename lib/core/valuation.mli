(** Value and cost of protecting static instructions (paper §4.5, §5.3,
    Algorithm 2).

    The value v(pc) is the number of injected errors at pc whose outcome
    is SDC-Bad — under the uniform error-site distribution this is the
    un-normalized probability of Algorithm 2, kept as exact integer site
    counts. The cost c(pc) is the number of dynamic instances of pc in
    the golden trace (the §5.3 instruction-duplication cost model).

    Two constructors mirror the two analyses: {!of_fastflip} labels each
    per-section injection by pushing its section-output SDC magnitudes
    through the Chisel specification (the RHS of Equation 4) and comparing
    with ε; {!of_baseline} labels end-to-end outcomes directly. *)

type class_label = {
  cls : Ff_inject.Eqclass.t;
  bad : bool;  (** SDC-Bad under this valuation's labels *)
}

type t = {
  epsilon : float;
  values : (Ff_inject.Site.pc * int) list;
  (** per-pc SDC-Bad site counts, deterministic pc order, zeros omitted *)
  total_value : int;   (** Σ v(pc): every SDC-Bad site once *)
  costs : (Ff_inject.Site.pc * int) list;
  (** per-pc dynamic instance counts over the whole golden trace *)
  total_cost : int;    (** total dynamic instructions of the trace *)
  labels : class_label list;
}

val value_of : t -> Ff_inject.Site.pc -> int

val cost_of : t -> Ff_inject.Site.pc -> int

val of_fastflip :
  Ff_vm.Golden.t ->
  propagation:Ff_chisel.Propagate.t ->
  sections:Ff_inject.Campaign.section_result array ->
  epsilon:float ->
  t
(** Requires one campaign result per schedule section. *)

val of_baseline :
  Ff_vm.Golden.t ->
  baseline:Ff_inject.Campaign.baseline_result ->
  epsilon:float ->
  t

val bad_labels_in_section : t -> section:int -> class_label list
(** The SDC-Bad labelled classes whose pilot lives in schedule section
    [section], in label order — the per-section work list for
    injection-measured detector coverage (each class replays once more,
    this time capturing the faulty section outputs). *)

val value_fraction : t -> selected:Ff_inject.Site.pc list -> float
(** Σ v(pc) over [selected] / total value (0 when the total is 0). *)

val cost_fraction : t -> selected:Ff_inject.Site.pc list -> float
(** Σ c(pc) over [selected] / total trace cost. *)

val pruned_bad_fraction : t -> selected:Ff_inject.Site.pc list -> float
(** Among this valuation's SDC-Bad value mass at the selected pcs, the
    fraction contributed by pruned (non-pilot) class members — the input
    to the §5.6 value error range. *)
