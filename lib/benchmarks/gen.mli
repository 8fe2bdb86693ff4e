(** Helpers for generating benchmark sources.

    Benchmark programs are kernel-language sources assembled as strings:
    inputs come from the deterministic RNG, and the Large-modification
    lookup tables are extracted from a golden run of the unmodified
    version, so LUT hits are bit-identical to the original computation. *)

val float_values : float list -> string
(** Comma-separated initializer list. *)

val int_values : int64 list -> string

val random_floats : seed:int64 -> lo:float -> hi:float -> int -> float list
(** Deterministic uniform values in [lo, hi). *)

val golden_of_source : string -> Ff_vm.Golden.t
(** Compile (with optimization) and run; fails on any diagnostic. *)

val buffer_index : Ff_vm.Golden.t -> string -> int
(** Index of a named program buffer. Raises [Failure] if absent. *)

val final_floats : Ff_vm.Golden.t -> string -> float list
(** Contents of a buffer after the schedule, as floats. *)

val entry_floats : Ff_vm.Golden.t -> label_prefix:string -> buffer:string -> float list
(** Contents of a buffer at the entry of the first section whose label
    starts with [label_prefix]. *)

val exit_floats : Ff_vm.Golden.t -> label_prefix:string -> buffer:string -> float list
(** Same, at that section's exit. *)

val entry_ints : Ff_vm.Golden.t -> label_prefix:string -> buffer:string -> int64 list

val exit_ints : Ff_vm.Golden.t -> label_prefix:string -> buffer:string -> int64 list

val once : (unit -> 'a) -> unit -> 'a
(** [once f] computes [f ()] on its first call and returns that value
    from then on. Unlike [lazy], it is safe to force from several
    domains or threads at once: later callers wait for the first. A
    raising [f] memoizes nothing. *)
