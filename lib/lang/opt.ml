open Ff_ir
open Ff_vm

(* --- shared CFG helpers ------------------------------------------------ *)

let successors code i =
  match code.(i) with
  | Instr.Jmp l -> [ l ]
  | Instr.Br (_, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Instr.Halt -> []
  | _ -> [ i + 1 ]

let branch_targets code =
  let n = Array.length code in
  let targets = Array.make n false in
  Array.iter
    (fun instr -> List.iter (fun l -> targets.(l) <- true) (Instr.labels instr))
    code;
  targets

(* Rebuild a kernel keeping only instructions with [keep.(i)], remapping
   labels to the first kept instruction at or after the old target. *)
let filter_code (kernel : Kernel.t) keep =
  let code = kernel.Kernel.code in
  let n = Array.length code in
  (* new_index.(i): position of instruction i in the new code if kept;
     forward.(i): position of the first kept instruction at index >= i. *)
  let new_index = Array.make (n + 1) 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    new_index.(i) <- !count;
    if keep.(i) then incr count
  done;
  new_index.(n) <- !count;
  let remap l = new_index.(l) in
  let out = Array.make !count Instr.Halt in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      let instr =
        match code.(i) with
        | Instr.Jmp l -> Instr.Jmp (remap l)
        | Instr.Br (c, l1, l2) -> Instr.Br (c, remap l1, remap l2)
        | other -> other
      in
      out.(!j) <- instr;
      incr j
    end
  done;
  { kernel with Kernel.code = out }

(* --- constant folding -------------------------------------------------- *)

let const_of d = function
  | Value.Int v -> Instr.Iconst (d, v)
  | Value.Float v -> Instr.Fconst (d, v)

let constant_fold (kernel : Kernel.t) =
  let code = Array.copy kernel.Kernel.code in
  let n = Array.length code in
  let targets = branch_targets code in
  let known : Value.t option array = Array.make kernel.Kernel.nregs None in
  let reset () = Array.fill known 0 (Array.length known) None in
  let get r = known.(r) in
  let set_dst instr value =
    match Instr.dst instr with
    | Some d -> known.(d) <- value
    | None -> ()
  in
  (* A compute op with every source known is evaluated by the
     interpreter's own step on a scratch register file, so folding can
     never disagree with a run; an op that would trap stays unfolded. *)
  let scratch = Array.make kernel.Kernel.nregs (Value.Int 0L) in
  let eval instr d =
    let srcs = Instr.srcs instr in
    if not (List.for_all (fun r -> Option.is_some (get r)) srcs) then None
    else begin
      List.iter (fun r -> scratch.(r) <- Option.get (get r)) srcs;
      match Machine.step scratch [||] instr ~pc:0 with
      | _ -> Some (const_of d scratch.(d))
      | exception Machine.Trap _ -> None
    end
  in
  for i = 0 to n - 1 do
    if targets.(i) then reset ();
    let instr = code.(i) in
    let folded =
      match instr with
      | Instr.Mov (d, s) -> Option.map (const_of d) (get s)
      | Instr.Ibin (_, d, _, _)
      | Instr.Fbin (_, d, _, _)
      | Instr.Iun (_, d, _)
      | Instr.Fun1 (_, d, _)
      | Instr.Icmp (_, d, _, _)
      | Instr.Fcmp (_, d, _, _)
      | Instr.Cast (_, d, _) ->
        eval instr d
      | Instr.Select (d, c, a, b) -> (
        match get c with
        | Some (Value.Int cv) -> Some (Instr.Mov (d, if cv <> 0L then a else b))
        | _ -> None)
      | Instr.Br (c, l1, l2) -> (
        match get c with
        | Some (Value.Int cv) -> Some (Instr.Jmp (if cv <> 0L then l1 else l2))
        | _ -> None)
      | _ -> None
    in
    (match folded with
    | Some instr' -> code.(i) <- instr'
    | None -> ());
    (* Update the constant map from the (possibly rewritten) instruction. *)
    (match code.(i) with
    | Instr.Iconst (_, v) -> set_dst code.(i) (Some (Value.Int v))
    | Instr.Fconst (_, v) -> set_dst code.(i) (Some (Value.Float v))
    | Instr.Mov (d, s) -> known.(d) <- get s
    | instr' -> set_dst instr' None)
  done;
  { kernel with Kernel.code = code }

(* --- copy propagation ---------------------------------------------------- *)

let copy_propagate (kernel : Kernel.t) =
  let code = Array.copy kernel.Kernel.code in
  let n = Array.length code in
  let targets = branch_targets code in
  (* copy_of.(r) = s >= 0: register r currently holds the value of s;
     -1: no copy. *)
  let nregs = kernel.Kernel.nregs in
  let copy_of = Array.make nregs (-1) in
  let reset () = Array.fill copy_of 0 nregs (-1) in
  let resolve r = if copy_of.(r) >= 0 then copy_of.(r) else r in
  let invalidate d =
    copy_of.(d) <- -1;
    for r = 0 to nregs - 1 do
      if copy_of.(r) = d then copy_of.(r) <- -1
    done
  in
  for i = 0 to n - 1 do
    if targets.(i) then reset ();
    let rewritten = Instr.map_srcs resolve code.(i) in
    code.(i) <- rewritten;
    match rewritten with
    | Instr.Mov (d, s) ->
      invalidate d;
      if d <> s then copy_of.(d) <- s
    | instr -> (
      match Instr.dst instr with
      | Some d -> invalidate d
      | None -> ())
  done;
  { kernel with Kernel.code = code }

(* --- jump simplification ----------------------------------------------- *)

let simplify_jumps (kernel : Kernel.t) =
  let code = Array.copy kernel.Kernel.code in
  let n = Array.length code in
  (* Follow chains of Jmp with a step bound to guard against cycles. *)
  let rec chase l steps =
    if steps = 0 then l
    else
      match code.(l) with
      | Instr.Jmp l' when l' <> l -> chase l' (steps - 1)
      | _ -> l
  in
  for i = 0 to n - 1 do
    match code.(i) with
    | Instr.Br (c, l1, l2) ->
      let l1 = chase l1 8 in
      let l2 = chase l2 8 in
      code.(i) <- (if l1 = l2 then Instr.Jmp l1 else Instr.Br (c, l1, l2))
    | Instr.Jmp l ->
      let l' = chase l 8 in
      if l' <> l then code.(i) <- Instr.Jmp l'
    | _ -> ()
  done;
  { kernel with Kernel.code = code }

(* --- unreachable code removal ------------------------------------------ *)

let remove_unreachable (kernel : Kernel.t) =
  let code = kernel.Kernel.code in
  let n = Array.length code in
  let reachable = Array.make n false in
  let rec visit i =
    if i >= 0 && i < n && not reachable.(i) then begin
      reachable.(i) <- true;
      List.iter visit (successors code i)
    end
  in
  visit 0;
  if Array.for_all Fun.id reachable then kernel else filter_code kernel reachable

(* --- common subexpression elimination ------------------------------------ *)

(* Available-expression key: the instruction with its destination field
   normalized away. *)
let cse_key instr =
  match (instr : Instr.t) with
  | Instr.Ibin (op, _, a, b) -> Some (Instr.Ibin (op, 0, a, b))
  | Instr.Fbin (op, _, a, b) -> Some (Instr.Fbin (op, 0, a, b))
  | Instr.Iun (op, _, a) -> Some (Instr.Iun (op, 0, a))
  | Instr.Fun1 (op, _, a) -> Some (Instr.Fun1 (op, 0, a))
  | Instr.Icmp (c, _, a, b) -> Some (Instr.Icmp (c, 0, a, b))
  | Instr.Fcmp (c, _, a, b) -> Some (Instr.Fcmp (c, 0, a, b))
  | Instr.Cast (c, _, a) -> Some (Instr.Cast (c, 0, a))
  | Instr.Select (_, c, a, b) -> Some (Instr.Select (0, c, a, b))
  | Instr.Iconst (_, v) -> Some (Instr.Iconst (0, v))
  | Instr.Fconst (_, v) -> Some (Instr.Fconst (0, v))
  (* Loads are not CSE'd: a Store in between may change the element, and
     tracking buffer aliasing is not worth it at this scale. *)
  | Instr.Mov _ | Instr.Load _ | Instr.Store _ | Instr.Jmp _ | Instr.Br _ | Instr.Halt ->
    None

let common_subexpressions (kernel : Kernel.t) =
  let code = Array.copy kernel.Kernel.code in
  let n = Array.length code in
  let targets = branch_targets code in
  let available : (Instr.t, Instr.reg) Hashtbl.t = Hashtbl.create 64 in
  let invalidate r =
    (* Drop every available expression that reads or is held in r. *)
    let stale =
      Hashtbl.fold
        (fun key holder acc ->
          if holder = r || List.mem r (Instr.srcs key) then key :: acc else acc)
        available []
    in
    List.iter (Hashtbl.remove available) stale
  in
  for i = 0 to n - 1 do
    if targets.(i) then Hashtbl.reset available;
    let instr = code.(i) in
    (match (cse_key instr, Instr.dst instr) with
    | Some key, Some d -> (
      match Hashtbl.find_opt available key with
      | Some holder when holder <> d ->
        code.(i) <- Instr.Mov (d, holder);
        invalidate d
      | Some _ | None ->
        invalidate d;
        (* Only register the value if the destination is not one of its
           own operands (else the source value is gone). *)
        if not (List.mem d (Instr.srcs key)) then Hashtbl.replace available key d)
    | _, Some d -> invalidate d
    | _, None -> ())
  done;
  { kernel with Kernel.code = code }

(* --- dead code elimination ---------------------------------------------- *)

let is_pure = function
  | Instr.Store _ | Instr.Jmp _ | Instr.Br _ | Instr.Halt -> false
  | Instr.Mov _ | Instr.Iconst _ | Instr.Fconst _ | Instr.Ibin _ | Instr.Fbin _
  | Instr.Iun _ | Instr.Fun1 _ | Instr.Icmp _ | Instr.Fcmp _ | Instr.Cast _
  | Instr.Select _ | Instr.Load _ -> true

(* Static backward register liveness over the kernel's CFG: the least
   fixpoint of live_in(pc) = use(pc) ∪ (live_out(pc) \ def(pc)),
   live_out(pc) = ∪ live_in(succ). Every per-pc register set is a flat
   run of [words] ints, 63 registers per word; only live_out is kept. *)
module Liveness = struct
  type t = {
    words : int;  (* ints per pc: ⌈nregs / Sys.int_size⌉ *)
    out : int array;  (* live_out of pc in [out.(pc * words) ..] *)
  }

  let bits = Sys.int_size

  let set_bit masks base r =
    let w = base + (r / bits) in
    masks.(w) <- masks.(w) lor (1 lsl (r mod bits))

  let of_kernel (kernel : Kernel.t) =
    let code = kernel.Kernel.code in
    let n = Array.length code in
    let words = (kernel.Kernel.nregs + bits - 1) / bits in
    let succ = Array.init n (successors code) in
    let gen = Array.make (n * words) 0 in
    let kill = Array.make (n * words) 0 in
    for pc = 0 to n - 1 do
      let base = pc * words in
      List.iter (set_bit gen base) (Instr.srcs code.(pc));
      Option.iter (set_bit kill base) (Instr.dst code.(pc))
    done;
    let live_in = Array.make (n * words) 0 in
    let out = Array.make (n * words) 0 in
    let rec union w acc = function
      | [] -> acc
      | s :: rest -> union w (acc lor live_in.((s * words) + w)) rest
    in
    (* Reverse order visits a straight-line run's successors before it, so
       each pass carries liveness across one more back edge. *)
    let changed = ref true in
    while !changed do
      changed := false;
      for pc = n - 1 downto 0 do
        let base = pc * words in
        for w = 0 to words - 1 do
          let o = union w 0 succ.(pc) in
          out.(base + w) <- o;
          let i = gen.(base + w) lor (o land lnot kill.(base + w)) in
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
end

let dce_once (kernel : Kernel.t) =
  let code = kernel.Kernel.code in
  let n = Array.length code in
  let live = Liveness.of_kernel kernel in
  let keep = Array.make n true in
  let removed = ref false in
  for i = 0 to n - 1 do
    match Instr.dst code.(i) with
    | Some d when is_pure code.(i) && not (Liveness.live_out live ~pc:i ~reg:d) ->
      keep.(i) <- false;
      removed := true
    | _ -> ()
  done;
  if !removed then Some (filter_code kernel keep) else None

let dead_code_elimination kernel =
  let rec go k =
    match dce_once k with
    | Some k' -> go k'
    | None -> k
  in
  go kernel

let optimize kernel =
  let pipeline k =
    k |> constant_fold |> copy_propagate |> simplify_jumps |> remove_unreachable
    |> dead_code_elimination
  in
  pipeline (pipeline kernel)
