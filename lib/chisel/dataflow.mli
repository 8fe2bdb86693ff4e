(** Dataflow specification between sections.

    The paper has developers (or standard compiler passes) supply how
    outputs of one section flow into inputs of later ones; here it is
    derived from the kernels' declared in/out/inout buffer parameters.
    FastFlip's incremental engine also uses it to find the downstream
    sections a semantic change can reach (§4.7). Register liveness
    inside a kernel is {!Ff_vm.Liveness}. *)

type section_io = {
  section_index : int;
  label : string;
  reads : int list;   (** program-buffer indices the section may read *)
  writes : int list;  (** program-buffer indices the section may write *)
}

type t = {
  sections : section_io array;
  program_outputs : int list;
}

val of_golden : Ff_vm.Golden.t -> t

val downstream : t -> int -> int list
(** [downstream t s]: schedule indices of the sections whose inputs are
    (transitively) data-dependent on the writes of section [s], in
    schedule order; excludes [s] itself. Dependence is flow-sensitive:
    a later full overwrite of a buffer is still conservatively treated
    as a dependence (the overwriting section reads nothing of it only if
    the buffer is a pure [out] parameter there). *)

val writers_of : t -> int -> int list
(** Sections writing a given buffer, in schedule order. *)

val pp : Format.formatter -> t -> unit
