(** Static backward register liveness over a decoded kernel's CFG
    (successors from {!Decode.successors}, use/def from
    {!Decode.srcs_at}/{!Decode.dst_at}). The one liveness analysis of the
    code base: dead-code elimination removes a pure instruction whose
    destination is not live-out, and the injection prover certifies a
    destination flip into a register that is not live-out as masked — it
    is overwritten before any read on {e every} static path, so no faulty
    run can observe it. *)

type t

val of_decoded : Decode.t -> t
(** One backward fixpoint per decoded kernel; reusable across every
    section that calls the kernel. *)

val live_out : t -> pc:int -> reg:int -> bool
(** May the value [reg] holds right after [pc] executed be read before
    being overwritten, on some path from [pc]? *)
