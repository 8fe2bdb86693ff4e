(** Dataflow specification between sections.

    The paper has developers (or standard compiler passes) supply how
    outputs of one section flow into inputs of later ones; here it is
    derived from the kernels' declared in/out/inout buffer parameters.
    The incremental engine does not consult it: a section's store key
    covers its input buffers' contents, so a semantic change reaches
    exactly the downstream sections whose inputs it alters (§4.7; see
    [Fastflip.Store]). Register liveness inside a kernel is
    [Ff_lang.Opt.Liveness]. *)

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
