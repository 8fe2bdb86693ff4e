(** Injection outcomes (paper §2.1).

    Crashes, timeouts, and misformatted (non-finite) outputs are
    {e detected} outcomes that cheap mechanisms (checkpoints, format
    checks) already catch. Everything else is characterized by the SDC
    magnitude it leaves in the observed outputs: zero everywhere means
    the error was masked. *)

type detected_kind =
  | Crash          (** VM trap: bounds, division, conversion, confusion *)
  | Timed_out      (** exceeded the 5× nominal-runtime budget *)
  | Misformatted   (** non-finite value in an output *)

(** Outcome of a FastFlip per-section injection: SDC magnitudes are per
    program-buffer index among the section's writable buffers (the
    section outputs o_{s,k}). *)
type section_outcome =
  | S_detected of detected_kind
  | S_sdc of (int * float) array

(** Outcome of a baseline end-to-end injection: SDC magnitudes are per
    final program output buffer. *)
type final_outcome =
  | F_detected of detected_kind
  | F_sdc of (int * float) list

val section_is_masked : section_outcome -> bool
(** All magnitudes zero (and not detected). *)

val final_is_bad : epsilon:float -> final_outcome -> bool
(** SDC-Bad: some final output magnitude strictly exceeds ε. Detected
    outcomes are never SDC-Bad. *)

val float_equal : float -> float -> bool
(** Equality of IEEE-754 bit patterns: [-0.0] and [0.0] differ, and so
    do NaNs with different payloads. *)

val section_equal : section_outcome -> section_outcome -> bool
(** Bit equality: same constructor, buffer indices and magnitudes by
    {!float_equal}. The one definition the store's round-trip check and
    the interners use. *)

val section_interner : unit -> section_outcome -> section_outcome
(** A fresh interner: each call returns the first outcome it was given
    that is {!section_equal} to its argument, so repeated outcomes (masked
    and crash results recur across most classes of a section) are held
    once. One interner per record; it keeps everything it has seen. *)

val final_interner : unit -> final_outcome -> final_outcome
(** {!section_interner} for final outcomes, under the same bit-exact
    equality. *)

val of_section_replay : Ff_vm.Replay.section_replay -> section_outcome

val of_program_replay : Ff_vm.Replay.program_replay -> final_outcome

val pp_section : Format.formatter -> section_outcome -> unit

val pp_final : Format.formatter -> final_outcome -> unit
