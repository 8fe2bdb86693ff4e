(** The MiniVM's shared vocabulary for a single kernel call (one program
    section): trap kinds, run statuses, injection coordinates and the
    per-run telemetry.

    The one interpreter is {!Unboxed}; this module carries none of its
    own. The test suite's reference oracle ([test/oracle/]) is a boxed
    tree-walking interpreter, an independent copy of the IR's semantics
    that the differential tests hold the unboxed engine to, and it
    speaks this vocabulary too. Faulty executions may take control
    paths the typechecker never saw, so both interpreters turn every
    anomaly (bounds violations, division by zero, invalid conversions,
    type confusion from wrongly-routed control flow) into a {!trap}
    instead of an OCaml exception. *)

type trap =
  | Out_of_bounds       (** buffer access outside [0, size) *)
  | Div_by_zero
  | Invalid_conversion  (** float-to-int of NaN or out-of-range value *)
  | Type_confusion      (** an operand had the wrong dynamic type; only
                            reachable when an injection corrupts control
                            flow into code whose registers were never
                            initialized on this path *)

type status =
  | Finished
  | Trapped of trap
  | Out_of_budget  (** instruction budget exhausted: the timeout outcome *)

type run = {
  status : status;
  executed : int;  (** dynamic instructions executed *)
}

type operand =
  | Osrc of int  (** i-th source register of the instruction, flipped
                     just before the instruction reads it; the corruption
                     persists in the register *)
  | Odst         (** destination register, flipped just after the write *)
  | Oskip        (** the instruction is fetched (it records in the trace
                     and counts against the budget) but not executed;
                     control falls through to [pc + 1], and falling off
                     the end of the kernel traps [Type_confusion] *)
  | Oenc         (** one bit ([injection.bit], see
                     {!Decode.encoding_bits}) of the packed encoding is
                     XORed for this one execution; {!Decode.corrupt}
                     re-validates the corrupted tuple, so an illegal
                     encoding traps [Type_confusion] instead of being
                     UB *)

type injection = {
  at_dyn : int;   (** dynamic instruction index within this section run *)
  operand : operand;
  bit : int;      (** 0..63 *)
}

exception Trap of trap
(** Raised by an interpreter's step on the conditions its run turns into
    a [Trapped] status. *)

val burst_bits : bit:int -> burst:int -> int list
(** The bits a burst of width [burst] starting at [bit] flips:
    [bit, bit+1, ...] wrapping modulo 64. Width 1 is the paper's
    single-event-upset model; larger widths model multi-bit upsets
    (§4.8 supports them within a single section). *)

val telemetry_record : status -> executed:int -> unit
(** Bump the per-exec VM telemetry (execs, instructions, trap kinds) for
    one finished run — shared by every interpreter so the
    [vm.instructions]/[vm.trap.*] counters mean the same thing on the
    production engine and the tests' oracle. *)

val pp_trap : Format.formatter -> trap -> unit

val pp_status : Format.formatter -> status -> unit
