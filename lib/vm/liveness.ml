(* Static backward register liveness over a decoded kernel's CFG: the
   least fixpoint of live_in(pc) = srcs(pc) ∪ (live_out(pc) \ dst(pc)),
   live_out(pc) = ∪ live_in(succ). Only live_out is kept. *)

type t = bool array array

let of_decoded (decoded : Decode.t) =
  let n = Decode.length decoded in
  let nregs = decoded.Decode.nregs in
  let succ = Decode.successors decoded in
  let live_in = Array.make_matrix n nregs false in
  let live_out = Array.make_matrix n nregs false in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let o = live_out.(pc) in
      Array.iter
        (fun s ->
          let si = live_in.(s) in
          for r = 0 to nregs - 1 do
            if si.(r) && not o.(r) then begin
              o.(r) <- true;
              changed := true
            end
          done)
        succ.(pc);
      let i = live_in.(pc) in
      let d = Decode.dst_at decoded pc in
      for r = 0 to nregs - 1 do
        if o.(r) && r <> d && not i.(r) then begin
          i.(r) <- true;
          changed := true
        end
      done;
      Array.iter
        (fun r ->
          if not i.(r) then begin
            i.(r) <- true;
            changed := true
          end)
        (Decode.srcs_at decoded pc)
    done
  done;
  live_out

let live_out t ~pc ~reg = t.(pc).(reg)
