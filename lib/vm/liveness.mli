(** Static backward register liveness over a decoded kernel's CFG
    (successors from {!Decode.successors}, use/def from
    {!Decode.srcs_at}/{!Decode.dst_at}). Its one user is dead-code
    elimination, which removes a pure instruction whose destination is
    not live-out.

    Each pc's register set is a flat bitset of ⌈nregs / 63⌉ ints
    ([Sys.int_size] bits per word), so the fixpoint moves a word of
    registers per step and a table holds n × ⌈nregs / 63⌉ words. *)

type t

val of_decoded : Decode.t -> t
(** The least fixpoint of live_in(pc) = use(pc) ∪ (live_out(pc) \ def(pc)),
    live_out(pc) = ∪ live_in(succ), by reverse-order sweeps until no
    word changes. *)

val live_out : t -> pc:int -> reg:int -> bool
(** May the value [reg] holds right after [pc] executed be read before
    being overwritten, on some path from [pc]? One bit test. *)
