(** Golden (error-free) execution of a whole program.

    Runs the schedule section by section, recording for each section a
    snapshot of all program buffers at entry, the dynamic trace, and
    per-pc dynamic counts. These snapshots are what injection replays and
    the incremental analysis key on: a section's identity is (code hash,
    entry-state hash). *)

type section_run = {
  section_index : int;              (** position in the schedule *)
  call : Ff_ir.Program.call;
  kernel : Ff_ir.Kernel.t;
  kernel_index : int;               (** index into [program.kernels] *)
  decoded : Decode.t;
  (** pre-decoded form of [kernel], shared across every section that
      calls the same kernel — campaigns decode each kernel exactly once *)
  scalars : Ff_ir.Value.t list;     (** scalar argument values *)
  bindings : (int * Ff_ir.Kernel.role) array;
  (** program-buffer index bound to each buffer-parameter slot *)
  entry_state : Ff_ir.Value.t array array;
  (** deep copy of every program buffer at section entry *)
  trace : int array;                (** golden dynamic instruction stream *)
  dyn_count : int;
  input_hash : int64;
  (** hash of the values the section can read: scalar args plus the entry
      contents of its readable buffers *)
}

type t = {
  program : Ff_ir.Program.t;
  sections : section_run array;
  final_state : Ff_ir.Value.t array array;
  (** every program buffer after the last section *)
  total_dyn : int;
}

val run : ?budget_per_section:int -> Ff_ir.Program.t -> t
(** Executes the program. Raises [Failure] if any section traps or
    exceeds [budget_per_section] (default 50 million): the golden run of
    a benchmark must be error-free by definition. *)

val exit_state : t -> int -> Ff_ir.Value.t array array
(** [exit_state g i] is the global buffer state right after section [i]
    (the entry state of section [i+1], or the final state). *)

val outputs : t -> (int * string * Ff_ir.Value.t array) list
(** Final program outputs: (buffer index, name, contents). *)
