open Ff_ir
open Ff_vm
module Hashing = Ff_support.Hashing
module Telemetry = Ff_support.Telemetry
module Ephemeron_cache = Ff_support.Ephemeron_cache
module A1 = Bigarray.Array1

(* Static outcome prover: decide the outcome of whole equivalence
   classes from the decoded IR and the golden trace alone, before any
   replay. The core is an exact single-fault forward walk along the
   section's concrete golden schedule: starting from the flipped
   operand, it tracks the exact faulty word and type tag of every
   corrupted register and memory element, and runs each corrupted
   computing instruction through the unboxed engine's own step
   ({!Unboxed.step}), so the walk shares the replay's operation
   semantics — int64/float operations, libm calls, trap conditions —
   instead of restating them. As long as control flow and memory
   addressing stay on the golden path, the walk is a bit-exact mirror of
   what a replay would compute, so every decision it reaches — the taint
   dies (Masked), the fault provably traps (Crash), or it completes with
   an exactly-known output perturbation (Benign SDC) — equals the replay
   outcome by construction. Anything else (control divergence,
   reads/writes through a corrupted address, non-finite faulty values,
   side-effect writes) is left undecided and fanned out to the replay
   pool as before: the prover may abstain, it may never disagree.

   The walk allocates nothing per step, and per class at most the
   outcome it proves and, once it completes, the boxed arguments of one
   {!Ustate.elem_distance} call per tainted element. Golden operands are
   recorded as raw 64-bit words plus a tag byte, taint lives in one
   walker per [prove] call (faulty
   words and tags, a tainted-slot index per register, the list of
   tainted registers that resets it), and a corrupted instruction is
   evaluated on staged words: its operands are copied into the first
   three of four scratch words, the engine's step runs the instruction's
   opcode over them as a one-instruction program
   [[| op; 0; 1; 2; 3 |]] (operands in scratch registers 0..2, result
   in 3), and the result is compared bit for bit with the recorded
   golden destination. A {!Machine.Trap} ends the walk as a crash,
   raised by the step or by the walk's own checks (a mistyped branch
   condition, a faulty address out of bounds). Memory taint is allocated
   the first time a store taints an element.

   Walks are shared: a walk's state at the first access (read or write)
   of its one tainted register at or after the flip is that register and
   its bit-exact faulty word and tag, and nothing else, so the outcome is
   a function of (register, first access, word, tag). Within one [prove]
   call a small direct-mapped cache maps that key to the class whose
   walk decided it, so a [Dst] flip and the [Src] flip of the same
   register's next reader walk once (unless another key took the slot
   in between). The cache holds a fixed 4 096 slots of per-domain
   scratch rather than a table sized to the class count: per-call
   tables of that size raised peak RSS on the benchmark's [cold] and
   [evolve] workloads, and the fixed cache keeps ≈98 % of the shares.

   The walk only leaps while no register is tainted: with memory taint
   alone, execution follows the golden path until it next touches a
   tainted element, found from the golden access schedule. Leaping over
   steps that touch no tainted register while registers are tainted does
   not pay: under avalanche (SHA2 keeps ≈45 registers tainted per step)
   finding the next access of every tainted register costs more than
   stepping.

   Soundness rests on two guards:
   - the golden recording pass is self-validating: it re-executes the
     section with {!Unboxed.step} from its golden entry state, in the
     replay workspace a replay of the section starts from, and aborts
     (disabling the prover for the section) unless its pc stream matches
     the golden trace and its bound buffers equal the golden exit state
     bit for bit ({!Ustate.buffer_equal});
   - sections whose replay budget could not even cover the golden
     schedule, or whose golden exit already holds non-finite writable
     values (where even a masked replay reports Misformatted), are
     refused wholesale.

   Store keys fold {!policy_hash} — which includes {!version} — so
   cached records and checkpoint journals never mix prover generations
   or prove-on/off runs. *)

let m_proved = Telemetry.counter "prover.classes_proved"
let m_masked = Telemetry.counter "prover.classes_masked"
let m_crash = Telemetry.counter "prover.classes_crash"
let m_benign = Telemetry.counter "prover.classes_benign"
let m_undecided = Telemetry.counter "prover.classes_undecided"
let m_refused = Telemetry.counter "prover.sections_refused"
let m_final_proved = Telemetry.counter "prover.final_proved"
let m_final_undecided = Telemetry.counter "prover.final_undecided"
let m_walk_steps = Telemetry.counter "prover.walk_steps"
let m_walks_shared = Telemetry.counter "prover.walks_shared"

let version = 1

type policy = { enabled : bool }

let off = { enabled = false }
let on = { enabled = true }

(* FF_PROVE=off is the field escape hatch when bisecting a suspected
   prover divergence. *)
let default_policy =
  match Sys.getenv_opt "FF_PROVE" with
  | Some s when String.lowercase_ascii s = "off" -> off
  | _ -> on

let policy_hash p =
  let h = Hashing.create () in
  Hashing.add_int h version;
  Hashing.add_int h (if p.enabled then 1 else 0);
  (* the retired benign floor, always infinite: kept so store keys stay
     stable *)
  Hashing.add_float h infinity;
  Hashing.value h

(* Literal copies of Ustate's tags, compared as immediates (see
   Unboxed). *)
let tag_int = '\000'
let tag_float = '\001'

let () = assert (tag_int = Ustate.tag_int && tag_float = Ustate.tag_float)

exception Invalid_recording

(* Words live in [Bytes], eight bytes each: on the OCaml heap, read and
   written as unboxed [int64]s. *)
let words n = Bytes.make (8 * n) '\000'
let[@inline] word b i = Bytes.get_int64_ne b (8 * i)
let[@inline] set_word b i v = Bytes.set_int64_ne b (8 * i) v

(* The elements of the bound buffers are numbered flat, one run per
   distinct program buffer: element [e] of program buffer [b] is
   [r_buf_base.(b) + e], and element [e] of the buffer bound to kernel
   slot [s] is [r_slot_base.(s) + e], so slots bound to one buffer
   alias. *)
type recording = {
  r_soff : int array;         (* dyn -> offset of its source operands in [r_sw] *)
  r_sw : Bytes.t;             (* flat golden source-operand words, per dyn *)
  r_st : Bytes.t;             (* and their tags *)
  r_dw : Bytes.t;             (* golden destination word after each dyn *)
  r_dt : Bytes.t;             (* and its tag *)
  r_buf_base : int array;     (* program buffer -> its first flat element, -1 unbound *)
  r_slot_base : int array;    (* kernel slot -> first flat element of its buffer *)
  r_slot_len : int array;     (* kernel slot -> length of its buffer *)
  r_elem_buf : int array;     (* flat element -> program buffer index *)
  r_mem_access : int array array;
      (* flat element -> ascending dyns of its golden Load/Stores *)
}

type section_prover = {
  section : Golden.section_run;
  exit : Ustate.t;  (* the section's golden exit state *)
  trace : int array;  (* the section's golden pc stream *)
  code : Instr.t array;  (* its kernel's code *)
  burst : int;
  recording : recording;
  writable : bool array;  (* per program buffer index *)
  writable_idx : int array;
  exit_nonfinite : bool;  (* golden exit writables already non-finite *)
  masked : Outcome.section_outcome option;  (* all-zero section SDC *)
  converged : Outcome.final_outcome option;  (* converged replay's final SDC *)
}

(* Re-execute the section with {!Unboxed.step} from its golden entry
   state in this domain's replay {!Workspace}, recording the golden word
   and tag of every source operand (before) and destination (after) of
   every dynamic instruction. The pc stream is checked against the golden
   trace step by step and the bound buffers against the golden exit
   state, so a recording that diverges from the golden run in any way
   aborts instead of licensing unsound proofs. *)
let record golden (section : Golden.section_run) =
  let si = section.Golden.section_index in
  let decoded = section.Golden.decoded in
  let trace = section.Golden.trace in
  let dyn_count = section.Golden.dyn_count in
  let code = section.Golden.kernel.Kernel.code in
  let soff = Array.make (dyn_count + 1) 0 in
  for j = 0 to dyn_count - 1 do
    soff.(j + 1) <- soff.(j) + Decode.nsrcs decoded trace.(j)
  done;
  let nsrc = max 1 soff.(dyn_count) and ndst = max 1 dyn_count in
  let sw = words nsrc and st = Bytes.make nsrc tag_int in
  let dw = words ndst and dt = Bytes.make ndst tag_int in
  let nregs = max 1 decoded.Decode.nregs in
  let regs = Ustate.make_words nregs in
  let iregs = Ustate.as_bits regs and rtags = Bytes.make nregs tag_int in
  let scal = section.Golden.scal_words in
  for i = 0 to Ustate.dim scal - 1 do
    A1.set iregs i (A1.get (Ustate.as_bits scal) i)
  done;
  Bytes.blit section.Golden.scal_tags 0 rtags 0 (Ustate.dim scal);
  (* The workspace's slot views alias slots bound to one buffer, exactly
     as in a replay. *)
  let ws = Workspace.get golden in
  Workspace.load_section_entry ws si;
  let state = ws.Workspace.state in
  let views = ws.Workspace.views.(si) and vtags = ws.Workspace.vtags.(si) in
  let base = Array.make (Array.length state.Ustate.words) (-1) in
  let elems = ref 0 in
  Array.iter
    (fun (idx, _) ->
      if base.(idx) < 0 then begin
        base.(idx) <- !elems;
        elems := !elems + Ustate.dim state.Ustate.words.(idx)
      end)
    section.Golden.bindings;
  let elems = !elems in
  let slot_base = Array.map (fun (idx, _) -> base.(idx)) section.Golden.bindings in
  let slot_len = Array.map Ustate.dim views in
  (* Golden memory-access schedule: for each touched element, the dyns
     of its Loads/Stores in order. The walk uses it to leap over clean
     stretches once all register taint has died. *)
  let accesses = Array.make elems [] in
  (try
     let pc = ref 0 in
     for j = 0 to dyn_count - 1 do
       if !pc <> trace.(j) then raise Invalid_recording;
       let sbase = soff.(j) in
       Array.iteri
         (fun k r ->
           set_word sw (sbase + k) (A1.get iregs r);
           Bytes.set st (sbase + k) (Bytes.get rtags r))
         (Decode.srcs_at decoded !pc);
       let next =
         match
           Unboxed.step decoded.Decode.packed decoded.Decode.imm regs iregs rtags views
             vtags ~base:(!pc * 5) ~pc:!pc
         with
         | next -> next
         | exception Unboxed.Halted -> -1
       in
       (* A Load's or Store's first source is its index. *)
       (match code.(!pc) with
       | Instr.Load (_, slot, _) | Instr.Store (slot, _, _) ->
         let e = slot_base.(slot) + Int64.to_int (word sw sbase) in
         accesses.(e) <- j :: accesses.(e)
       | _ -> ());
       let d = Decode.dst_at decoded !pc in
       if d >= 0 then begin
         set_word dw j (A1.get iregs d);
         Bytes.set dt j (Bytes.get rtags d)
       end;
       if next < 0 && j <> dyn_count - 1 then raise Invalid_recording;
       pc := next
     done
   with Machine.Trap _ -> raise Invalid_recording);
  (* Exit-state validation: every bound buffer must match the golden
     exit bit for bit. *)
  let exit = Golden.state golden (si + 1) in
  if
    not
      (Array.for_all
         (fun idx -> Ustate.buffer_equal state idx exit idx)
         section.Golden.bound_idx)
  then raise Invalid_recording;
  let elem_buf = Array.make elems 0 in
  Array.iteri
    (fun idx b ->
      if b >= 0 then Array.fill elem_buf b (Ustate.dim state.Ustate.words.(idx)) idx)
    base;
  {
    r_soff = soff;
    r_sw = sw;
    r_st = st;
    r_dw = dw;
    r_dt = dt;
    r_buf_base = base;
    r_slot_base = slot_base;
    r_slot_len = slot_len;
    r_elem_buf = elem_buf;
    r_mem_access =
      Array.map (function [] -> [||] | l -> Array.of_list (List.rev l)) accesses;
  }

(* Recording cache, keyed by physical identity of the section run: a
   section is recorded once and then shared by the section pre-pass, the
   final-outcome pre-pass, and any repeated campaign over the same
   golden run, and the recording dies with its section run. [None]
   caches a failed self-validation so an invalid section is not
   re-executed on every attempt. Recordings are immutable after
   construction, so sharing across domains is safe. *)
let recording_cache : (Golden.section_run, recording option) Ephemeron_cache.t =
  Ephemeron_cache.create 32

let recording_of golden section =
  Ephemeron_cache.find_or_compute recording_cache section (fun () ->
      match record golden section with
      | r -> Some r
      | exception Invalid_recording -> None)

let prepare golden ~section_index ~timeout_factor ~burst =
  let section = golden.Golden.sections.(section_index) in
  let dyn_count = section.Golden.dyn_count in
  if Replay.budget_of ~timeout_factor dyn_count < dyn_count then None
  else begin
    let nprog = Array.length section.Golden.entry.Ustate.words in
    let writable = Array.make nprog false in
    let writable_idx = section.Golden.writable_idx in
    Array.iter (fun idx -> writable.(idx) <- true) writable_idx;
    let exit = Golden.state golden (section_index + 1) in
    let exit_nonfinite = Array.exists (Ustate.has_nonfinite exit) writable_idx in
    match recording_of golden section with
    | None ->
      Telemetry.incr m_refused;
      None
    | Some recording ->
      Some
        {
          section;
          exit;
          trace = section.Golden.trace;
          code = section.Golden.kernel.Kernel.code;
          burst;
          recording;
          writable;
          writable_idx;
          exit_nonfinite;
          masked = Some (Outcome.S_sdc (Array.map (fun idx -> (idx, 0.0)) writable_idx));
          converged =
            Some
              (Outcome.F_sdc
                 (Program.output_buffers golden.Golden.program
                 |> List.map (fun (idx, _) -> (idx, 0.0))));
        }
  end

(* --- the walker ------------------------------------------------------------ *)

(* Taint state of one walk, reused by every walk of a [prove] call. A
   register [r] is tainted iff [rpos.(r) >= 0], its index in [rlist]; the
   same holds for flat memory elements with [mpos]/[mlist]. Faulty words
   are always bit-different from, or of another type than, their golden
   counterparts. *)
type walker = {
  fw : Bytes.t;  (* faulty word per register *)
  ft : Bytes.t;      (* and its tag *)
  rpos : int array;
  rlist : int array;
  mutable rcount : int;
  mutable mw : Bytes.t;  (* per flat element; empty until first needed *)
  mutable mt : Bytes.t;
  mutable mpos : int array;
  mutable mlist : int array;
  mutable mcount : int;
  sw : Ustate.words;  (* staged operands in slots 0..2, the result in 3 *)
  sb : Ustate.bits;   (* the same memory as [sw], read as int64 *)
  stag : Bytes.t;
  insn : int array;  (* [| opcode; 0; 1; 2; 3 |]: one instruction over the slots *)
  mags : float array;  (* per program buffer: max |Δ| of a completed walk *)
  mutable steps : int;
  mutable shared : int;
}

let walker_of sp =
  let nregs = sp.section.Golden.decoded.Decode.nregs in
  let sw = Ustate.make_words 4 in
  {
    fw = words nregs;
    ft = Bytes.make nregs tag_int;
    rpos = Array.make nregs (-1);
    rlist = Array.make nregs 0;
    rcount = 0;
    mw = Bytes.empty;
    mt = Bytes.empty;
    mpos = [||];
    mlist = [||];
    mcount = 0;
    sw;
    sb = Ustate.as_bits sw;
    stag = Bytes.make 4 tag_int;
    insn = [| 0; 0; 1; 2; 3 |];
    mags = Array.make (Array.length sp.writable) 0.0;
    steps = 0;
    shared = 0;
  }

let[@inline] taint_reg w r =
  if w.rpos.(r) < 0 then begin
    w.rpos.(r) <- w.rcount;
    w.rlist.(w.rcount) <- r;
    w.rcount <- w.rcount + 1
  end

let[@inline] clean_reg w r =
  let p = w.rpos.(r) in
  if p >= 0 then begin
    let n = w.rcount - 1 in
    let last = w.rlist.(n) in
    w.rlist.(p) <- last;
    w.rpos.(last) <- p;
    w.rpos.(r) <- -1;
    w.rcount <- n
  end

let taint_mem sp w e =
  if Array.length w.mpos = 0 then begin
    let n = Array.length sp.recording.r_elem_buf in
    w.mw <- words n;
    w.mt <- Bytes.make n tag_int;
    w.mpos <- Array.make n (-1);
    w.mlist <- Array.make n 0
  end;
  if w.mpos.(e) < 0 then begin
    w.mpos.(e) <- w.mcount;
    w.mlist.(w.mcount) <- e;
    w.mcount <- w.mcount + 1
  end

let clean_mem w e =
  if w.mcount > 0 then begin
    let p = w.mpos.(e) in
    if p >= 0 then begin
      let n = w.mcount - 1 in
      let last = w.mlist.(n) in
      w.mlist.(p) <- last;
      w.mpos.(last) <- p;
      w.mpos.(e) <- -1;
      w.mcount <- n
    end
  end

let reset w =
  for i = 0 to w.rcount - 1 do
    w.rpos.(w.rlist.(i)) <- -1
  done;
  w.rcount <- 0;
  for i = 0 to w.mcount - 1 do
    w.mpos.(w.mlist.(i)) <- -1
  done;
  w.mcount <- 0

(* A walk ends in one of three ways; a completed walk leaves its memory
   taint in the walker for the scope to read. *)
type walk =
  | W_crash  (** the faulty run provably traps inside the section *)
  | W_complete
      (** ran to Halt on the golden path; the walker's memory taint holds
          every element whose faulty value differs from golden *)
  | W_undecided

exception Divergent

(* The walk's own crash decisions, raised as the engine's trap. *)
let type_confusion = Machine.Trap Machine.Type_confusion
let out_of_bounds = Machine.Trap Machine.Out_of_bounds

let[@inline] tainted w r = Array.unsafe_get w.rpos r >= 0

(* Stage source operand [k] of the dyn whose operands start at [gi]:
   register [r]'s faulty word when it is tainted, its golden word
   otherwise. *)
let[@inline] stage sp w k r gi =
  if w.rpos.(r) >= 0 then begin
    A1.unsafe_set w.sb k (word w.fw r);
    Bytes.unsafe_set w.stag k (Bytes.get w.ft r)
  end
  else begin
    let rc = sp.recording in
    A1.unsafe_set w.sb k (word rc.r_sw gi);
    Bytes.unsafe_set w.stag k (Bytes.get rc.r_st gi)
  end

(* Write the result slot to register [d]: taint it when it differs from
   the golden destination of dyn [j], clean it otherwise. *)
let[@inline] commit sp w d j =
  let rc = sp.recording in
  let v = A1.unsafe_get w.sb 3 and t = Bytes.unsafe_get w.stag 3 in
  if t = Bytes.get rc.r_dt j && v = word rc.r_dw j then clean_reg w d
  else begin
    taint_reg w d;
    set_word w.fw d v;
    Bytes.set w.ft d t
  end

(* Run the computing instruction at [pc] over the staged slots with the
   engine's step, as the one-instruction program [[| op; 0; 1; 2; 3 |]],
   and commit its result to register [d]. *)
let[@inline] run_staged sp w pc d j =
  let decoded = sp.section.Golden.decoded in
  w.insn.(0) <- decoded.Decode.packed.(pc * 5);
  ignore
    (Unboxed.step w.insn decoded.Decode.imm w.sw w.sb w.stag [||] [||] ~base:0 ~pc : int);
  commit sp w d j

(* A load or store through tainted register [i]: out of bounds traps
   exactly as the replay does; in bounds the walk would have to know
   golden memory it never recorded. *)
let faulty_address sp w slot i =
  if Bytes.get w.ft i <> tag_int then raise_notrace type_confusion;
  let f = word w.fw i in
  if f < 0L || f >= Int64.of_int sp.recording.r_slot_len.(slot) then
    raise_notrace out_of_bounds
  else raise_notrace Divergent

(* One dynamic instruction. Operand registers come straight off the
   instruction constructors, and a tainted computing instruction stages
   them in [Instr.srcs] order, which is what indexes the recorded
   operands. The common all-clean case touches only [rpos] and cleans the
   destination without evaluating anything. *)
let step sp w j =
  let rc = sp.recording in
  let pc = sp.trace.(j) in
  let gi = rc.r_soff.(j) in
  match sp.code.(pc) with
  | Instr.Jmp _ | Instr.Halt -> ()
  | Instr.Br (c, _, _) ->
    if tainted w c then begin
      if Bytes.get w.ft c <> tag_int then raise_notrace type_confusion;
      if word w.fw c <> 0L <> (word rc.r_sw gi <> 0L) then raise_notrace Divergent
    end
  | Instr.Store (slot, i, v) ->
    if tainted w i then faulty_address sp w slot i
    else begin
      let e = rc.r_slot_base.(slot) + Int64.to_int (word rc.r_sw gi) in
      if tainted w v then begin
        taint_mem sp w e;
        set_word w.mw e (word w.fw v);
        Bytes.set w.mt e (Bytes.get w.ft v)
      end
      else clean_mem w e
    end
  | Instr.Load (d, slot, i) ->
    if tainted w i then faulty_address sp w slot i
    else begin
      let e = rc.r_slot_base.(slot) + Int64.to_int (word rc.r_sw gi) in
      if w.mcount > 0 && w.mpos.(e) >= 0 then begin
        A1.unsafe_set w.sb 3 (word w.mw e);
        Bytes.unsafe_set w.stag 3 (Bytes.get w.mt e);
        commit sp w d j
      end
      else clean_reg w d
    end
  | Instr.Iconst (d, _) | Instr.Fconst (d, _) -> clean_reg w d
  | Instr.Ibin (_, d, a, b)
  | Instr.Fbin (_, d, a, b)
  | Instr.Icmp (_, d, a, b)
  | Instr.Fcmp (_, d, a, b) ->
    if tainted w a || tainted w b then begin
      stage sp w 0 a gi;
      stage sp w 1 b (gi + 1);
      run_staged sp w pc d j
    end
    else clean_reg w d
  | Instr.Mov (d, a)
  | Instr.Iun (_, d, a)
  | Instr.Fun1 (_, d, a)
  | Instr.Cast (_, d, a) ->
    if tainted w a then begin
      stage sp w 0 a gi;
      run_staged sp w pc d j
    end
    else clean_reg w d
  | Instr.Select (d, c, a, b) ->
    if tainted w c || tainted w a || tainted w b then begin
      stage sp w 0 c gi;
      stage sp w 1 a (gi + 1);
      stage sp w 2 b (gi + 2);
      run_staged sp w pc d j
    end
    else clean_reg w d

(* Smallest golden access of a tainted element at or after dyn [j]
   ([max_int] when the rest of the schedule touches none of them). *)
let next_mem_access sp w j =
  let nxt = ref max_int in
  for k = 0 to w.mcount - 1 do
    let arr = sp.recording.r_mem_access.(w.mlist.(k)) in
    let lo = ref 0 and hi = ref (Array.length arr) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid) < j then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length arr && arr.(!lo) < !nxt then nxt := arr.(!lo)
  done;
  !nxt

(* Walk the seeded taint from dyn [start] to the end of the section. *)
let walk sp w start =
  let dyn_count = sp.section.Golden.dyn_count in
  let j = ref start in
  match
    while !j < dyn_count do
      if w.rcount > 0 then begin
        step sp w !j;
        w.steps <- w.steps + 1;
        incr j
      end
      else if w.mcount = 0 then j := dyn_count
      else begin
        (* All register taint is dead, so execution tracks the golden
           path exactly until it next touches a tainted element: clean
           stores to clean elements rewrite golden values and clean
           loads of clean elements recompute golden registers. Leap
           straight to that access instead of stepping through the
           clean stretch. *)
        let nxt = next_mem_access sp w !j in
        if nxt >= dyn_count then j := dyn_count
        else begin
          step sp w nxt;
          w.steps <- w.steps + 1;
          j := nxt + 1
        end
      end
    done
  with
  | () -> W_complete
  | exception Machine.Trap _ -> W_crash
  | exception Divergent -> W_undecided

(* The first dyn at or after [j] whose instruction reads or writes
   register [r], or [dyn_count]: until then the walk only carries [r]'s
   taint along. *)
let first_access sp r j =
  let decoded = sp.section.Golden.decoded in
  let trace = sp.section.Golden.trace in
  let dyn_count = sp.section.Golden.dyn_count in
  let j = ref j and found = ref false in
  while (not !found) && !j < dyn_count do
    let pc = trace.(!j) in
    if Decode.dst_at decoded pc = r then found := true
    else begin
      let ss = Decode.srcs_at decoded pc in
      for k = 0 to Array.length ss - 1 do
        if ss.(k) = r then found := true
      done;
      if not !found then incr j
    end
  done;
  !j

(* Map a completed walk's memory taint to the exact section outcome a
   replay would report: per-writable-buffer max |Δ| from the golden exit
   element ({!Ustate.elem_distance}, the replay's own element distance)
   in the section's writable order, Misformatted and
   side-effect cases declined. So is a tainted element whose type
   differs from golden (an untyped kernel can store either kind): the
   replay's distance raises on it, so there is no outcome to claim. *)
let section_outcome sp w =
  if sp.exit_nonfinite then None
  else if w.mcount = 0 then sp.masked
  else begin
    let rc = sp.recording in
    Array.fill w.mags 0 (Array.length w.mags) 0.0;
    let claimable = ref true in
    for k = 0 to w.mcount - 1 do
      let e = w.mlist.(k) in
      let bidx = rc.r_elem_buf.(e) in
      let off = e - rc.r_buf_base.(bidx) in
      let t = Bytes.get w.mt e in
      if t <> Bytes.get sp.exit.Ustate.tags.(bidx) off then claimable := false
      else begin
        let x = word w.mw e in
        let y = A1.get (Ustate.as_bits sp.exit.Ustate.words.(bidx)) off in
        let d = Ustate.elem_distance t y x in
        if sp.writable.(bidx) then begin
          if t = tag_float && not (Float.is_finite (Int64.float_of_bits x)) then
            claimable := false;
          if d > w.mags.(bidx) then w.mags.(bidx) <- d
        end
        else if d > 0.0 then claimable := false
      end
    done;
    if not !claimable then None
    else begin
      let masked = ref true in
      for k = 0 to Array.length sp.writable_idx - 1 do
        if w.mags.(sp.writable_idx.(k)) <> 0.0 then masked := false
      done;
      if !masked then sp.masked
      else
        Some (Outcome.S_sdc (Array.map (fun idx -> (idx, w.mags.(idx))) sp.writable_idx))
    end
  end

(* --- shared walks ------------------------------------------------------------ *)

(* Walks shared within one [prove] call: a direct-mapped cache of
   [memo_slots] slots, each holding the key (register, first access,
   faulty word, tag) of one walk and the index of the class it decided.
   A later class with the same key takes that class's outcome; a
   colliding key overwrites the slot, which costs a repeated walk and
   never a wrong outcome, since a hit compares the whole key. The arrays
   are per-domain scratch, cleared by each call, so a call allocates no
   table; like the replay workspace, they assume one [prove] at a time
   per domain (the serve daemon runs campaigns in one lane). *)
let memo_bits = 12
let memo_slots = 1 lsl memo_bits

type memo = {
  k_key : int array;  (* -1: empty slot *)
  k_word : Bytes.t;
  k_cls : int array;
}

let memo_scratch =
  Domain.DLS.new_key (fun () ->
      {
        k_key = Array.make memo_slots (-1);
        k_word = words memo_slots;
        k_cls = Array.make memo_slots 0;
      })

let memo_for () =
  let m = Domain.DLS.get memo_scratch in
  Array.fill m.k_key 0 memo_slots (-1);
  m

(* Flip the golden word at [gi] of ([bits], [tags]) into register [r]'s
   taint with the burst mask ({!Machine.burst_bits} XORed in one at a
   time, so a bit listed twice cancels, as in the replay). False when the
   burst cancels out and nothing is tainted. *)
let seed sp w r bits tags gi ~bit =
  set_word w.fw r (word bits gi);
  for k = 0 to max 1 sp.burst - 1 do
    set_word w.fw r (Int64.logxor (word w.fw r) (Int64.shift_left 1L ((bit + k) mod 64)))
  done;
  if word w.fw r = word bits gi then false
  else begin
    taint_reg w r;
    Bytes.set w.ft r (Bytes.get tags gi);
    true
  end

(* One scope of the pre-pass: the outcome a finished walk proves, if
   any, and the counters a proved or undecided class bumps. *)
type 'o scope = {
  decide : section_prover -> walker -> walk -> 'o option;
  proved : 'o -> unit;
  undecided : Telemetry.counter;
}

(* Decide class [c]: seed its pilot's flip, then take the outcome of
   the class that already walked its key, or walk from the flipped
   register's first access. Only register flips in this section can be
   walked: [Op] and [Mem] pilots come from models that abstain wholesale
   before reaching here, but the guard keeps the prover total. *)
let decide_class scope sp w memo proofs c (cls : Eqclass.t) =
  let section, dyn = cls.Eqclass.group.Eqclass.g_representative in
  let rc = sp.recording in
  let trace = sp.section.Golden.trace in
  let decoded = sp.section.Golden.decoded in
  let shared r fa =
    let fw = word w.fw r in
    let key = (((fa * decoded.Decode.nregs) + r) * 2) + Char.code (Bytes.get w.ft r) in
    (* the top bits of an odd 64-bit multiple depend on every input bit *)
    let h =
      Int64.mul (Int64.logxor fw (Int64.of_int (key * 0x2545F491))) 0x9E3779B97F4A7C15L
    in
    let i = Int64.to_int (Int64.shift_right_logical h (64 - memo_bits)) in
    if memo.k_key.(i) = key && word memo.k_word i = fw then begin
      w.shared <- w.shared + 1;
      proofs.(memo.k_cls.(i))
    end
    else begin
      memo.k_key.(i) <- key;
      set_word memo.k_word i fw;
      memo.k_cls.(i) <- c;
      scope.decide sp w (walk sp w fa)
    end
  in
  let proof =
    if section <> sp.section.Golden.section_index || dyn < 0
       || dyn >= sp.section.Golden.dyn_count
    then None
    else
      match cls.Eqclass.group.Eqclass.g_operand with
      | Site.Src k ->
        (* corrupts the register before the instruction at [dyn] reads
           it, which is that register's first access *)
        let ss = Decode.srcs_at decoded trace.(dyn) in
        if k < Array.length ss
           && seed sp w ss.(k) rc.r_sw rc.r_st (rc.r_soff.(dyn) + k) ~bit:cls.Eqclass.bit
        then shared ss.(k) dyn
        else scope.decide sp w W_complete
      | Site.Dst ->
        (* corrupts the freshly-written destination after it, so the
           walk resumes at the next dyn *)
        let d = Decode.dst_at decoded trace.(dyn) in
        if d >= 0 && seed sp w d rc.r_dw rc.r_dt dyn ~bit:cls.Eqclass.bit then
          shared d (first_access sp d (dyn + 1))
        else scope.decide sp w W_complete
      | Site.Op | Site.Mem _ -> None
  in
  reset w;
  proof

let section_scope =
  {
    decide =
      (fun sp w -> function
        | W_crash -> Some (Outcome.S_detected Outcome.Crash)
        | W_undecided -> None
        | W_complete -> section_outcome sp w);
    proved =
      (fun o ->
        Telemetry.incr m_proved;
        match o with
        | Outcome.S_detected _ -> Telemetry.incr m_crash
        | Outcome.S_sdc _ ->
          Telemetry.incr (if Outcome.section_is_masked o then m_masked else m_benign));
    undecided = m_undecided;
  }

(* Only proofs that survive to the end of the program are claimed. *)
let final_scope =
  {
    decide =
      (fun sp w -> function
        | W_crash -> Some (Outcome.F_detected Outcome.Crash)
        | W_complete when w.mcount = 0 ->
          (* No memory taint at the section boundary and registers do
             not carry across sections: the replay converges with the
             golden state right there, which run_to_end reports as
             all-zero final SDC over the program outputs. *)
          sp.converged
        | W_complete | W_undecided -> None);
    proved = (fun _ -> Telemetry.incr m_final_proved);
    undecided = m_final_undecided;
  }

(* Register bursts reuse the taint walk bit for bit ({!Machine.burst_bits}
   is the shared mask); every other model abstains wholesale — skip and
   encoding corruption change control flow, memory flips perturb state the
   recording never captured. Abstention is the sound default: undecided
   classes replay as usual, so the prover still never disagrees. *)
let reg_burst_of = function
  | Fault_model.Bitflip { burst } -> Some burst
  | Fault_model.Skip | Fault_model.Opcode | Fault_model.Memflip _ -> None

(* The scope driver behind both pre-passes. *)
let prove scope golden ~section_index ~timeout_factor ~model policy classes =
  let none () = Array.map (fun _ -> None) classes in
  if not policy.enabled then none ()
  else
    match Option.bind (reg_burst_of model) (fun burst ->
              prepare golden ~section_index ~timeout_factor ~burst)
    with
    | None ->
      Telemetry.add scope.undecided (Array.length classes);
      none ()
    | Some sp ->
      let w = walker_of sp in
      let memo = memo_for () in
      let proofs = Array.make (Array.length classes) None in
      Array.iteri
        (fun c cls ->
          let proof = decide_class scope sp w memo proofs c cls in
          proofs.(c) <- proof;
          match proof with
          | Some o -> scope.proved o
          | None -> Telemetry.incr scope.undecided)
        classes;
      Telemetry.add m_walk_steps w.steps;
      Telemetry.add m_walks_shared w.shared;
      proofs

let prove_section golden = prove section_scope golden
let prove_final golden = prove final_scope golden
