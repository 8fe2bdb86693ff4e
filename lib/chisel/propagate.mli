(** End-to-end symbolic SDC propagation (paper §4.4, Equations 2-4).

    Walks the schedule once, maintaining for every program buffer a
    conservative affine bound on its SDC magnitude in terms of the
    φ_{s,k} variables. At section s with sensitivity matrix K:

    Δ(o) ≤ Σ_i K_{o,i} · Δ(i) + φ_{s,o}   for every buffer o written by s,

    which is exactly Equation 3; buffers s does not write keep their
    bounds. The result is the specification f_{T,λ} for every final
    output λ, and {!specialized} gives the single-error restriction
    f_{T,λ,s} of Equation 4. *)

type t = {
  final_bounds : (int * Affine.t) list;
  (** per program-output buffer index λ: f_{T,λ}(φ_{*,*}) *)
  buffer_bounds : Affine.t array;
  (** bound of every program buffer at the end of the schedule *)
}

val run : Ff_vm.Golden.t -> specs:Ff_sensitivity.Sensitivity.t array -> t
(** [specs.(s)] must be the sensitivity spec of schedule section [s].
    Raises [Invalid_argument] on a length mismatch. *)

val specialized : t -> output:int -> section:int -> Affine.t
(** f_{T,λ,s}: the φ terms of section [section] in the bound of output
    [output]. *)

val bound_for_injection :
  t -> output:int -> section:int -> magnitudes:(int * float) array -> float
(** Evaluate f_{T,λ,s} at the per-buffer SDC magnitudes a per-section
    injection produced — the RHS of Equation 4 used by Algorithm 2.
    [magnitudes] pairs program-buffer indices with r_k. *)

val pp : Format.formatter -> t -> unit
(** Renders the final-output specifications like Equation 2. *)
