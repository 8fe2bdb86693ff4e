(* Static backward register liveness over a decoded kernel's CFG: the
   least fixpoint of live_in(pc) = use(pc) ∪ (live_out(pc) \ def(pc)),
   live_out(pc) = ∪ live_in(succ). Every per-pc register set is a flat
   run of [words] ints, 63 registers per word; only live_out is kept. *)

type t = {
  words : int;  (* ints per pc: ⌈nregs / Sys.int_size⌉ *)
  out : int array;  (* live_out of pc in [out.(pc * words) ..] *)
}

let bits = Sys.int_size

let set_bit masks base r =
  let w = base + (r / bits) in
  masks.(w) <- masks.(w) lor (1 lsl (r mod bits))

let of_decoded (decoded : Decode.t) =
  let n = Decode.length decoded in
  let words = (decoded.Decode.nregs + bits - 1) / bits in
  let succ = Decode.successors decoded in
  let gen = Array.make (n * words) 0 in
  let kill = Array.make (n * words) 0 in
  for pc = 0 to n - 1 do
    let base = pc * words in
    Array.iter (set_bit gen base) (Decode.srcs_at decoded pc);
    let d = Decode.dst_at decoded pc in
    if d >= 0 then set_bit kill base d
  done;
  let live_in = Array.make (n * words) 0 in
  let out = Array.make (n * words) 0 in
  (* Reverse order visits a straight-line run's successors before it, so
     each pass carries liveness across one more back edge. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let base = pc * words in
      let ss = succ.(pc) in
      for w = 0 to words - 1 do
        let o = ref 0 in
        for k = 0 to Array.length ss - 1 do
          o := !o lor live_in.((ss.(k) * words) + w)
        done;
        out.(base + w) <- !o;
        let i = gen.(base + w) lor (!o land lnot kill.(base + w)) in
        if i <> live_in.(base + w) then begin
          live_in.(base + w) <- i;
          changed := true
        end
      done
    done
  done;
  { words; out }

let live_out t ~pc ~reg =
  (t.out.((pc * t.words) + (reg / bits)) lsr (reg mod bits)) land 1 <> 0
