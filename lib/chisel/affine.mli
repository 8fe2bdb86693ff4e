(** Conservative affine expressions over symbolic SDC variables.

    Chisel's end-to-end SDC specifications are affine functions of the
    φ_{s,k} variables (paper §5.1, Equation 2). A variable φ_{s,k} stands
    for "the SDC magnitude an error introduces into buffer k during
    section s". Expressions are sparse: only non-zero coefficients are
    stored. The program input is assumed SDC-free (§4.4), so there is no
    constant term. *)

type var = {
  section : int;  (** schedule index s *)
  buffer : int;   (** program buffer index k (an output of section s) *)
}

type t
(** Σ c_v · φ_v with c_v > 0 (or +∞). *)

val zero : t

val var : var -> t
(** The expression 1·φ_v. *)

val scale : float -> t -> t
(** [scale c e]: multiply every coefficient by [c] (≥ 0). Scaling by 0
    yields {!zero}; scaling by ∞ sends every present coefficient to ∞. *)

val add : t -> t -> t
(** Coefficient-wise sum. *)

val coeff : t -> var -> float
(** 0 when absent. *)

val vars : t -> var list
(** Variables with non-zero coefficient, in deterministic order. *)

val restrict_section : t -> int -> t
(** Keep only the φ variables of one section — the specialization
    f_{T,λ,s} of Equation 4 (all other sections' φ set to 0 under the
    single-error model). *)

val eval : t -> (var -> float) -> float
(** Evaluate with the given assignment; 0-valued assignments contribute
    nothing even under an infinite coefficient (0·∞ is 0 here: "no SDC
    introduced means no SDC propagated"). *)

val is_zero : t -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** e.g. [4174.8·φ(s0,b2) + 3.2·φ(s1,b2)]. *)
