(** Local sensitivity analysis (paper §2.2, Equation 1).

    Estimates, for each (input buffer, output buffer) pair of a section,
    the SDC amplification factor K — the local Lipschitz constant of the
    section around its golden input. The estimator follows the paper's
    setup: random perturbations of magnitude up to [max_perturbation],
    randomly hitting a single element, a random subset, or all elements
    of the input buffer (§5.6 "sensitivity analysis parameters"), with
    the Wood-Zhang max-ratio estimate scaled by a conservative
    [safety_factor] (sampling can only underestimate a Lipschitz
    constant; Chisel's contract is a conservative bound).

    Integer buffers are perturbed by ±[max 1 (round max_perturbation)];
    for avalanche-style integer kernels (SHA2) the resulting K is huge,
    which is the correct conservative statement that any upstream SDC may
    corrupt the output arbitrarily. A perturbed run that traps or times
    out yields K = ∞ for that pair. *)

type t = {
  section_index : int;
  input_buffers : int array;   (** readable program-buffer indices *)
  output_buffers : int array;  (** writable program-buffer indices *)
  k : float array array;       (** [k.(o).(i)]: amplification of input
                                   [input_buffers.(i)] into output
                                   [output_buffers.(o)] *)
  samples_used : int;
  work : int;                  (** dynamic instructions simulated *)
}

val perturb :
  Ff_support.Rng.t -> max_perturbation:float -> Ff_vm.Ustate.t -> int -> unit
(** [perturb rng ~max_perturbation u b] applies the benign perturbation
    model to buffer [b] of [u] in place: it hits a single element, a
    random subset, or all elements (drawn from [rng]). Floats move by a
    signed δ with 0 < |δ| ≤ [max_perturbation]; ints by a nonzero δ
    within ±[max 1 (round max_perturbation)]. An empty buffer is left
    alone and draws nothing. Detector synthesis reuses it for its benign
    runs. *)

val timeout_factor : float
(** Every perturbed run gets [timeout_factor ×] the section's golden
    dynamic instruction count ({!Ff_vm.Replay.budget_of}): 5, the
    paper's replay budget. *)

val estimate :
  ?samples:int ->
  ?max_perturbation:float ->
  ?safety_factor:float ->
  ?pool:Ff_support.Pool.t ->
  rng:Ff_support.Rng.t ->
  Ff_vm.Golden.t ->
  section_index:int ->
  t
(** Defaults: 200 samples per input buffer, max perturbation 0.01 (the
    paper's ε), safety factor 1.25.

    The sample loop runs in fixed-size chunks, each seeded from [rng]'s
    next output combined with the (input, chunk) index — never from the
    scheduling — so the estimate is identical for every [pool] width
    (including no pool). [rng] advances exactly once per call. Each
    sample runs on {!Ff_vm.Replay.exec_section}, from the section's
    golden entry with one input buffer {!perturb}ed. *)

val amplification : t -> output:int -> input:int -> float
(** K for a (program-buffer, program-buffer) pair; 0 when the output does
    not depend on the input (or either index is not part of the section). *)

val spec_hash : t -> int64
(** Content hash, stored alongside section results for reuse. *)
