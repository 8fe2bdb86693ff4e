(** Equivalence-class pruning of injections (Approxilyzer's heuristic,
    paper §5.1).

    Bitflips in the same (static instruction, operand, bit) triple tend
    to produce the same outcome, so only one {e pilot} per class is
    injected and its outcome applied to every member. The class scope is
    what separates the two analyses:
    {ul
    {- {!for_section}: classes within one section instance (FastFlip);}
    {- {!for_program}: classes across the whole trace (the monolithic
       baseline) — dynamic instances of the same kernel pc in different
       sections share a class, which is why the baseline can be faster
       on unmodified programs whose schedules repeat kernels (paper's
       FFT).}}

    The pilot is the median member in trace order: a deterministic choice
    that, like the paper's pilots, is not a perfect predictor for the
    pruned members (§5.6 "pruning error range"). *)

type group = {
  g_pc : Site.pc;
  g_operand : Site.operand;
  g_members : (int * int) array;
  (** (section index, dynamic index) of every member site, trace order *)
  g_representative : int * int;
  (** the median member — the site every class over this group pilots
      with, exposed so the prover and campaign share one definition
      instead of re-deriving the walk *)
}
(** A maximal set of sites that differ only in their dynamic instance:
    one per (pc, operand) target of the fault model, before the bit
    dimension multiplies it into classes. *)

type t = {
  group : group;
  (** physically shared by every bit class of the (pc, operand) *)
  bit : int;
}
(** A class is a view of its group at one bit: the pc, operand and
    member list are the group's, never copied per bit, and the pilot is
    derived from the group's representative rather than stored, so it
    cannot disagree with its class. *)

val pc : t -> Site.pc

val operand : t -> Site.operand

val members : t -> (int * int) array
(** (section index, dynamic index) of every member site, trace order. *)

val pilot : t -> Site.t
(** The site injected for the whole class: the group's representative at
    the class's pc, operand and bit. Built on each call; callers take it
    once per injection and let it die young. *)

val size : t -> int
(** Number of member sites. *)

val members_in_section : t -> int -> int
(** How many members the class has inside a given section. *)

val groups_of_section :
  ?model:Fault_model.t -> Ff_vm.Golden.section_run -> group list
(** The class groups of one section instance under the model (default
    {!Fault_model.default}), in deterministic (pc, operand) order. *)

val for_section :
  ?model:Fault_model.t -> Ff_vm.Golden.section_run -> Site.bit_policy -> t list
(** Classes of one section instance, in deterministic (pc, operand, bit)
    order: each group of {!groups_of_section} expanded over
    {!Site.model_bits}, its bit classes sharing the group. *)

val for_program :
  ?model:Fault_model.t -> Ff_vm.Golden.t -> Site.bit_policy -> t list
(** Whole-trace classes, in deterministic order. *)

val total_sites : t list -> int
