(** Kernels: the unit of code that a program section executes.

    A kernel is a flat array of {!Instr.t} over [nregs] virtual registers,
    parameterized by scalar arguments (preloaded into the first registers,
    in declaration order) and buffer arguments (addressed by buffer slot).
    One kernel call in a program's schedule is one {e section} in FastFlip's
    sense. *)

type role = In | Out | InOut
(** Dataflow role of a buffer parameter. [In] buffers are read-only:
    a store to one traps at runtime (this is how the analysis contains
    error-induced side effects, cf. paper §4.9). *)

type param =
  | Scalar of string * Value.scalar_ty
  | Buffer of string * Value.scalar_ty * role

type t = {
  name : string;
  params : param list;
  code : Instr.t array;
  nregs : int;
}

val scalar_params : t -> (string * Value.scalar_ty) list
(** Scalar parameters in declaration order; the i-th one is preloaded
    into register i at kernel entry. *)

val buffer_params : t -> (string * Value.scalar_ty * role) list
(** Buffer parameters in declaration order; the j-th one is buffer slot j. *)

val role_writable : role -> bool
(** [true] for [Out] and [InOut]. *)

val role_readable : role -> bool
(** [true] for [In] and [InOut]. [Out] buffers may also be read back after
    being written, but their incoming contents carry no dataflow. *)

type validation_error = {
  instr_index : int option;
  message : string;
}

val shape_error : t -> validation_error option
(** The first whole-kernel property [t] breaks: non-empty code, scalar
    preload registers within [nregs], a terminator last. *)

val instr_error : t -> Instr.t -> string option
(** [instr_error t instr] is the first static property [instr] breaks
    as an instruction of [t]: registers below [nregs], labels within the
    code, buffer slots within the buffer parameters. It does not check
    stores to [In] buffers, which an encoding fault may produce. *)

val validate : t -> (unit, validation_error) result
(** {!shape_error}, then per instruction {!instr_error} and no store to
    an [In] buffer. *)

val code_hash : t -> int64
(** Hash of the kernel's name, signature and instruction stream. Two
    kernels with equal hashes are (up to collisions) the same code; the
    incremental analysis uses this to detect modified sections. *)

val pp : Format.formatter -> t -> unit
(** Full assembly listing of the kernel. *)
