(** Golden (error-free) execution of a whole program.

    Runs the schedule section by section on the {!Unboxed} engine, over
    one unboxed program state whose per-slot views alias (as a
    {!Workspace}'s do, so a call binding one buffer to two slots sees its
    own writes), recording for each section its unboxed entry state, the
    dynamic trace, and per-pc dynamic counts. These boundary states are
    what injection replays and the incremental analysis read: a section's
    identity is (code hash, entry-state hash). Each is held once, as the
    run's own {!Ustate.t}; readers that need boxed values box one buffer
    at a time with {!Ustate.values}. The test suite's boxed oracle
    computes the same run independently. *)

type section_run = {
  section_index : int;              (** position in the schedule *)
  call : Ff_ir.Program.call;
  kernel : Ff_ir.Kernel.t;
  kernel_index : int;               (** index into [program.kernels] *)
  decoded : Decode.t;
  (** pre-decoded form of [kernel], shared across every section that
      calls the same kernel — campaigns decode each kernel exactly once *)
  scal_words : Ustate.words;        (** scalar argument words *)
  scal_tags : Bytes.t;              (** scalar argument tags *)
  bindings : (int * Ff_ir.Kernel.role) array;
  (** program-buffer index bound to each buffer-parameter slot *)
  writable_idx : int array;
  (** sorted, de-duplicated writable program-buffer indices *)
  scan_idx : int array;
  (** sorted bound-but-not-writable program-buffer indices. A kernel can
      only touch buffers bound to its slots, so these are the only
      buffers a side-effect scan must inspect *)
  bound_idx : int array;
  (** sorted, de-duplicated bound program-buffer indices: the buffers a
      section replay resets, reads and inspects *)
  entry : Ustate.t;
  (** every program buffer at section entry: shared by every reader,
      never written *)
  trace : int array;                (** golden dynamic instruction stream *)
  dyn_count : int;
  input_hash : int64;
  (** hash of the values the section can read: scalar args plus the entry
      contents of its readable buffers *)
}

type t = {
  program : Ff_ir.Program.t;
  sections : section_run array;
  final : Ustate.t;  (** every program buffer after the last section *)
  total_dyn : int;
}

val run : ?budget_per_section:int -> Ff_ir.Program.t -> t
(** Executes the program. Raises [Failure] if any section traps or
    exceeds [budget_per_section] (default 50 million): the golden run of
    a benchmark must be error-free by definition. *)

val state : t -> int -> Ustate.t
(** [state g k] is golden boundary state [k]: the entry state of section
    [k], or the final state when [k] is the section count. Section [i]'s
    golden exit state is [state g (i + 1)]. *)

val outputs : t -> (int * string * Ff_ir.Value.t array) list
(** Final program outputs: (buffer index, name, boxed contents). *)
