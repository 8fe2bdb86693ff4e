(** Error sites: the injectable (dynamic instruction, register operand,
    bit) triples of a program execution, addressed against golden traces.

    A {e static instruction} (pc) is a (kernel index, instruction index)
    pair; the same pc appearing in two different sections (two calls of
    one kernel) is the same static instruction — the baseline analysis
    exploits this for cross-section pruning, FastFlip cannot (paper §6.2,
    the FFT anomaly). *)

type pc = {
  kernel : int;  (** index into the program's kernel list *)
  instr : int;   (** instruction offset within the kernel *)
}

type operand =
  | Src of int  (** i-th source register operand *)
  | Dst         (** destination register *)
  | Op          (** the instruction itself — a skip or an encoding
                    corruption, disambiguated by the fault model *)
  | Mem of int  (** one element of the named program buffer, flipped in
                    the section's entry state; [dyn] is the element
                    index *)

type t = {
  section : int;  (** schedule index of the section instance *)
  dyn : int;      (** dynamic instruction index within the section
                      ([Mem]: the element index) *)
  pc : pc;
  operand : operand;
  bit : int;
}

type bit_policy =
  | All_bits            (** all 64 bits, the paper's model *)
  | Bit_list of int list  (** an explicit subset, applied identically to
                              both analyses (a scaled-down model) *)

val bits_of_policy : bit_policy -> int list

val model_bits : Fault_model.t -> bit_policy -> int list
(** The bit indices the model injects at each site: the policy verbatim
    for register/memory flips, [[0]] for skip (no bit dimension), the
    policy restricted to {!Ff_vm.Decode.encoding_bits} for encoding
    corruption. *)

val compare_pc : pc -> pc -> int

val pp_pc : Format.formatter -> pc -> unit

val pp : Format.formatter -> t -> unit

val machine_injection : t -> Ff_vm.Machine.injection
(** Translate a register-operand site into the VM's injection descriptor.
    Raises [Invalid_argument] on [Op]/[Mem] sites, whose meaning depends
    on the fault model — use {!replay_injection}. *)

val replay_injection : model:Fault_model.t -> t -> Ff_vm.Replay.injection
(** Lower a site to the replay-level injection the model prescribes:
    register sites to [Osrc]/[Odst] flips, [Op] sites to a skip or an
    encoding corruption, [Mem] sites to an entry-state flip whose burst
    width comes from the model. *)

val bound_buffers : Ff_vm.Golden.section_run -> int list
(** The distinct program buffers the section binds, ascending — the
    targets of the memflip model. *)

val count_section :
  ?model:Fault_model.t -> Ff_vm.Golden.section_run -> bit_policy -> int
(** |J_s|: number of error sites in one section instance under the model
    (default {!Fault_model.default}). *)

val default_bits : bit_policy
(** The stratified 16-bit subset used by the experiment harness: low
    mantissa/int bits, mid bits, the float exponent region, and sign
    bits. Recorded here so FastFlip and the baseline always agree. *)
