(** Learned runtime detectors: cheap checks on a section's output
    buffers, in the style of pySDC's Hot Rod range/invariant checking.

    A detector attaches to one (schedule section, program buffer) pair
    and is evaluated against the buffer's contents at section exit —
    recompute-on-suspicion is the assumed response, so a firing detector
    counts as full coverage of the faults it catches. Three forms:

    {ul
    {- [Finite]: every element is a finite float (ints are always
       finite) — the NaN/Inf guard.}
    {- [Range]: every element lies in [[lo, hi]], bounds learned from
       the golden exit values and widened by the section's Lipschitz
       constant × the benign perturbation magnitude × the safety factor,
       then further widened to cover every observed benign training run.
       Non-finite values fail the range test by construction.}
    {- [Linear]: the element sum of the output buffer tracks an affine
       function of the element sum of one input buffer, with tolerance
       learned from benign perturbed runs. Only synthesized when the
       section reads exactly one buffer, so the invariant is sound
       against perturbations of {e any} input.}}

    Costs are in the same unit as the duplication cost model (§5.3
    dynamic instructions per program run), so the mixed knapsack can
    trade a detector's amortized check cost against per-instance
    duplication cost directly. *)

type form =
  | Finite
  | Range of { lo : float; hi : float }
  | Linear of { input : int; scale : float; offset : float; tol : float }
      (** [input] is the program buffer index whose element sum predicts
          the output's element sum: |Σout − (scale·Σin + offset)| ≤ tol *)

type t = {
  d_section : int;  (** schedule index the check runs after *)
  d_buffer : int;   (** program buffer checked at section exit *)
  d_form : form;
  d_cost : int;     (** dynamic-instruction-equivalent cost per program run *)
}

val cost_of_form : form -> len:int -> input_len:int -> int
(** The cost model: [Finite] is one check per element ([len]), [Range]
    two ([2·len]), [Linear] one add per input and output element plus a
    constant ([len + input_len + 4]). *)

val fires : t -> entry_sum:float -> Ff_ir.Value.t array -> bool
(** Evaluate the detector against the buffer's exit contents.
    [entry_sum] is the element sum of the [Linear] input buffer at
    section entry (ignored by the other forms). Any non-finite quantity
    fires: the comparisons are written so NaN can never slip through. *)

val sum : Ff_ir.Value.t array -> float
(** Deterministic left-to-right element sum ([Int] via [Int64.to_float])
    — the quantity [Linear] detectors track on both sides. *)

val spec_hash : t array array -> int64
(** Digest of a full per-section candidate set (the [detector_hash] the
    coverage cache keys on): section/buffer/form/thresholds of every
    candidate, order-sensitive. *)

val describe : t -> string
(** Short human form, e.g. [range[-1.5,2.5] on b3 after s1]. *)
