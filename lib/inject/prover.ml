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
   corrupted register and memory element, evaluating corrupted
   instructions with the interpreter's operation semantics (the same
   int64/float operations, libm calls and trap conditions as
   {!Machine.step}). As long as control flow and memory addressing stay
   on the golden path, the walk is a bit-exact mirror of what a replay
   would compute, so every decision it reaches — the taint dies
   (Masked), the fault provably traps (Crash), or it completes with an
   exactly-known output perturbation (Benign SDC) — equals the replay
   outcome by construction. Anything else (control divergence,
   reads/writes through a corrupted address, non-finite faulty values,
   side-effect writes) is left undecided and fanned out to the replay
   pool as before: the prover may abstain, it may never disagree.

   The walk allocates nothing per step, and per class at most the
   outcome it proves. Golden
   operands are recorded as raw 64-bit words plus a tag byte, taint lives
   in one walker per [prove] call (faulty words and tags, a tainted-slot
   index per register, the list of tainted registers that resets it), and
   a corrupted instruction is evaluated in place on staged words: its
   operands are copied into four scratch slots, the result is computed
   into the last one and compared bit for bit with the recorded golden
   destination. Arms spell out their arithmetic instead of calling
   shared evaluators because, without flambda, a call taking or
   returning an [int64] or a [float] boxes it. Memory taint is
   allocated the first time a store taints an element.

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
     section with {!Machine.step} and aborts (disabling the prover for
     the section) unless its pc stream and exit buffers match the golden
     run bit for bit;
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

let int64_max_float = 9.223372036854775808e18

exception Invalid_recording

(* Words live in [Bytes], eight bytes each: on the OCaml heap, read and
   written as unboxed [int64]s. *)
let words n = Bytes.make (8 * n) '\000'
let[@inline] word b i = Bytes.get_int64_ne b (8 * i)
let[@inline] set_word b i v = Bytes.set_int64_ne b (8 * i) v

(* The elements of the bound buffers are numbered flat, one run per
   distinct program buffer: element [e] of the buffer bound to kernel
   slot [s] is [r_slot_base.(s) + e], so slots bound to one buffer
   alias. *)
type recording = {
  r_soff : int array;         (* dyn -> offset of its source operands in [r_sw] *)
  r_sw : Bytes.t;             (* flat golden source-operand words, per dyn *)
  r_st : Bytes.t;             (* and their tags *)
  r_dw : Bytes.t;             (* golden destination word after each dyn *)
  r_dt : Bytes.t;             (* and its tag *)
  r_slot_base : int array;    (* kernel slot -> first flat element of its buffer *)
  r_slot_len : int array;     (* kernel slot -> length of its buffer *)
  r_elem_buf : int array;     (* flat element -> program buffer index *)
  r_exit_w : Bytes.t;         (* golden exit word of each flat element *)
  r_exit_t : Bytes.t;
  r_mem_access : int array array;
      (* flat element -> ascending dyns of its golden Load/Stores *)
}

type section_prover = {
  section : Golden.section_run;
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

(* Re-execute the section with {!Machine.step}, recording the golden
   word and tag of every source operand (before) and destination (after)
   of every dynamic instruction. The pc stream is checked against the
   golden trace step by step and the final buffers against the golden
   exit state, so a recording that diverges from the golden run in any
   way aborts instead of licensing unsound proofs. *)
let record (section : Golden.section_run) golden_exit =
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
  let put bits tags i v =
    set_word bits i
      (match v with Value.Int w -> w | Value.Float x -> Int64.bits_of_float x);
    Bytes.set tags i (Ustate.tag_of_value v)
  in
  let regs = Array.make decoded.Decode.nregs (Value.Int 0L) in
  List.iteri (fun i v -> regs.(i) <- v) section.Golden.scalars;
  (* One copy per distinct program buffer: slots bound to the same
     buffer must alias, exactly as in Machine.exec. *)
  let nprog = Array.length section.Golden.entry_state in
  let state = Array.make nprog [||] in
  let base = Array.make nprog (-1) in
  let elems = ref 0 in
  Array.iter
    (fun (idx, _) ->
      if base.(idx) < 0 then begin
        base.(idx) <- !elems;
        state.(idx) <- Array.copy section.Golden.entry_state.(idx);
        elems := !elems + Array.length state.(idx)
      end)
    section.Golden.bindings;
  let elems = !elems in
  let slot_idx = Array.map fst section.Golden.bindings in
  let slot_base = Array.map (fun idx -> base.(idx)) slot_idx in
  let slot_len = Array.map (fun idx -> Array.length state.(idx)) slot_idx in
  let buffers = Array.map (fun idx -> state.(idx)) slot_idx in
  (* Golden memory-access schedule: for each touched element, the dyns
     of its Loads/Stores in order. The walk uses it to leap over clean
     stretches once all register taint has died. *)
  let accesses = Array.make elems [] in
  (try
     let pc = ref 0 in
     for j = 0 to dyn_count - 1 do
       if !pc <> trace.(j) then raise Invalid_recording;
       let instr = code.(!pc) in
       let sbase = soff.(j) in
       Array.iteri
         (fun k r -> put sw st (sbase + k) regs.(r))
         (Decode.srcs_at decoded !pc);
       let next = Machine.step regs buffers instr ~pc:!pc in
       (* A Load's or Store's first source is its index. *)
       (match instr with
       | Instr.Load (_, slot, _) | Instr.Store (slot, _, _) ->
         let e = slot_base.(slot) + Int64.to_int (word sw sbase) in
         accesses.(e) <- j :: accesses.(e)
       | _ -> ());
       let d = Decode.dst_at decoded !pc in
       if d >= 0 then put dw dt j regs.(d);
       if next < 0 && j <> dyn_count - 1 then raise Invalid_recording;
       pc := next
     done
   with Machine.Trap _ -> raise Invalid_recording);
  (* Exit-state validation: every bound buffer must match the golden
     exit bit for bit. *)
  let exit_w = words (max 1 elems) in
  let exit_t = Bytes.make (max 1 elems) tag_int in
  let elem_buf = Array.make elems 0 in
  Array.iteri
    (fun idx a ->
      if base.(idx) >= 0 then begin
        let b = golden_exit.(idx) in
        if Array.length a <> Array.length b then raise Invalid_recording;
        Array.iteri
          (fun e v ->
            if not (Value.equal v b.(e)) then raise Invalid_recording;
            put exit_w exit_t (base.(idx) + e) v;
            elem_buf.(base.(idx) + e) <- idx)
          a
      end)
    state;
  {
    r_soff = soff;
    r_sw = sw;
    r_st = st;
    r_dw = dw;
    r_dt = dt;
    r_slot_base = slot_base;
    r_slot_len = slot_len;
    r_elem_buf = elem_buf;
    r_exit_w = exit_w;
    r_exit_t = exit_t;
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

let recording_of section golden_exit =
  Ephemeron_cache.find_or_compute recording_cache section (fun () ->
      match record section golden_exit with
      | r -> Some r
      | exception Invalid_recording -> None)

let prepare golden ~section_index ~timeout_factor ~burst =
  let section = golden.Golden.sections.(section_index) in
  let dyn_count = section.Golden.dyn_count in
  if Replay.budget_of ~timeout_factor dyn_count < dyn_count then None
  else begin
    let plan = Workspace.plan_of golden in
    let golden_exit = Golden.exit_state golden section_index in
    let nprog = Array.length section.Golden.entry_state in
    let writable = Array.make nprog false in
    let writable_idx = plan.Workspace.writable_idx.(section_index) in
    Array.iter (fun idx -> writable.(idx) <- true) writable_idx;
    let exit_nonfinite =
      Array.exists
        (fun idx -> Array.exists (fun v -> not (Value.is_finite v)) golden_exit.(idx))
        writable_idx
    in
    match recording_of section golden_exit with
    | None ->
      Telemetry.incr m_refused;
      None
    | Some recording ->
      Some
        {
          section;
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

exception Crashes
exception Divergent

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

let[@inline] need w k tag = if Bytes.unsafe_get w.stag k <> tag then raise_notrace Crashes

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

(* The evaluators read the staged slots and write slot 3, with the
   interpreter's type checks and trap conditions: a wrongly-typed operand
   is [Type_confusion], and every trap ends the walk as a crash. *)
let eval_ibin w op =
  need w 0 tag_int;
  need w 1 tag_int;
  let a = A1.unsafe_get w.sb 0 and b = A1.unsafe_get w.sb 1 in
  A1.unsafe_set w.sb 3
    (match op with
    | Instr.Iadd -> Int64.add a b
    | Instr.Isub -> Int64.sub a b
    | Instr.Imul -> Int64.mul a b
    | Instr.Idiv -> if b = 0L then raise_notrace Crashes else Int64.div a b
    | Instr.Irem -> if b = 0L then raise_notrace Crashes else Int64.rem a b
    | Instr.Iand -> Int64.logand a b
    | Instr.Ior -> Int64.logor a b
    | Instr.Ixor -> Int64.logxor a b
    | Instr.Ishl -> Int64.shift_left a (Int64.to_int b land 63)
    | Instr.Ilshr -> Int64.shift_right_logical a (Int64.to_int b land 63)
    | Instr.Iashr -> Int64.shift_right a (Int64.to_int b land 63)
    | Instr.Irotl ->
      let s = Int64.to_int b land 63 in
      if s = 0 then a
      else Int64.logor (Int64.shift_left a s) (Int64.shift_right_logical a (64 - s))
    | Instr.Irotr ->
      let s = Int64.to_int b land 63 in
      if s = 0 then a
      else Int64.logor (Int64.shift_right_logical a s) (Int64.shift_left a (64 - s))
    | Instr.Imin -> if a <= b then a else b
    | Instr.Imax -> if a >= b then a else b);
  Bytes.unsafe_set w.stag 3 tag_int

let eval_fbin w op =
  need w 0 tag_float;
  need w 1 tag_float;
  let a = A1.unsafe_get w.sw 0 and b = A1.unsafe_get w.sw 1 in
  A1.unsafe_set w.sw 3
    (match op with
    | Instr.Fadd -> a +. b
    | Instr.Fsub -> a -. b
    | Instr.Fmul -> a *. b
    | Instr.Fdiv -> a /. b
    | Instr.Fmin -> Float.min a b
    | Instr.Fmax -> Float.max a b
    | Instr.Fpow -> Float.pow a b);
  Bytes.unsafe_set w.stag 3 tag_float

let eval_iun w op =
  need w 0 tag_int;
  let a = A1.unsafe_get w.sb 0 in
  A1.unsafe_set w.sb 3
    (match op with Instr.Ineg -> Int64.neg a | Instr.Inot -> Int64.lognot a);
  Bytes.unsafe_set w.stag 3 tag_int

let eval_fun1 w op =
  need w 0 tag_float;
  let a = A1.unsafe_get w.sw 0 in
  A1.unsafe_set w.sw 3
    (match op with
    | Instr.FFneg -> -.a
    | Instr.FFabs -> Float.abs a
    | Instr.FFsqrt -> Float.sqrt a
    | Instr.FFexp -> Float.exp a
    | Instr.FFlog -> Float.log a
    | Instr.FFsin -> Float.sin a
    | Instr.FFcos -> Float.cos a
    | Instr.FFfloor -> Float.floor a
    | Instr.FFceil -> Float.ceil a);
  Bytes.unsafe_set w.stag 3 tag_float

let eval_icmp w c =
  need w 0 tag_int;
  need w 1 tag_int;
  let a = A1.unsafe_get w.sb 0 and b = A1.unsafe_get w.sb 1 in
  let r =
    match c with
    | Instr.Ceq -> a = b
    | Instr.Cne -> a <> b
    | Instr.Clt -> a < b
    | Instr.Cle -> a <= b
    | Instr.Cgt -> a > b
    | Instr.Cge -> a >= b
  in
  A1.unsafe_set w.sb 3 (if r then 1L else 0L);
  Bytes.unsafe_set w.stag 3 tag_int

let eval_fcmp w c =
  need w 0 tag_float;
  need w 1 tag_float;
  let a = A1.unsafe_get w.sw 0 and b = A1.unsafe_get w.sw 1 in
  (* IEEE semantics: every ordered comparison with NaN is false except <>. *)
  let r =
    match c with
    | Instr.Ceq -> a = b
    | Instr.Cne -> a <> b
    | Instr.Clt -> a < b
    | Instr.Cle -> a <= b
    | Instr.Cgt -> a > b
    | Instr.Cge -> a >= b
  in
  A1.unsafe_set w.sb 3 (if r then 1L else 0L);
  Bytes.unsafe_set w.stag 3 tag_int

let eval_cast w c =
  match c with
  | Instr.Itof ->
    need w 0 tag_int;
    A1.unsafe_set w.sw 3 (Int64.to_float (A1.unsafe_get w.sb 0));
    Bytes.unsafe_set w.stag 3 tag_float
  | Instr.Ftoi ->
    need w 0 tag_float;
    let x = A1.unsafe_get w.sw 0 in
    if Float.is_nan x || x >= int64_max_float || x < -.int64_max_float then
      raise_notrace Crashes;
    A1.unsafe_set w.sb 3 (Int64.of_float x);
    Bytes.unsafe_set w.stag 3 tag_int
  | Instr.Fbits ->
    (* the word already is the bits: retag *)
    need w 0 tag_float;
    A1.unsafe_set w.sb 3 (A1.unsafe_get w.sb 0);
    Bytes.unsafe_set w.stag 3 tag_int
  | Instr.Bitsf ->
    need w 0 tag_int;
    A1.unsafe_set w.sb 3 (A1.unsafe_get w.sb 0);
    Bytes.unsafe_set w.stag 3 tag_float

let eval_select w =
  need w 0 tag_int;
  let k = if A1.unsafe_get w.sb 0 <> 0L then 1 else 2 in
  A1.unsafe_set w.sb 3 (A1.unsafe_get w.sb k);
  Bytes.unsafe_set w.stag 3 (Bytes.unsafe_get w.stag k)

(* A load or store through tainted register [i]: out of bounds traps
   exactly as the replay does; in bounds the walk would have to know
   golden memory it never recorded. *)
let faulty_address sp w slot i =
  if Bytes.get w.ft i <> tag_int then raise_notrace Crashes;
  let f = word w.fw i in
  if f < 0L || f >= Int64.of_int sp.recording.r_slot_len.(slot) then raise_notrace Crashes
  else raise_notrace Divergent

(* One dynamic instruction. Operand registers come straight off the
   instruction constructors (same order as [Instr.srcs], which is what
   indexes the recorded operands); the common all-clean case touches only
   [rpos] and cleans the destination without evaluating anything. *)
let step sp w j =
  let rc = sp.recording in
  let pc = sp.trace.(j) in
  let gi = rc.r_soff.(j) in
  match sp.code.(pc) with
  | Instr.Jmp _ | Instr.Halt -> ()
  | Instr.Br (c, _, _) ->
    if tainted w c then begin
      if Bytes.get w.ft c <> tag_int then raise_notrace Crashes;
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
  | Instr.Mov (d, s) ->
    if tainted w s then begin
      stage sp w 3 s gi;
      commit sp w d j
    end
    else clean_reg w d
  | Instr.Ibin (op, d, a, b) ->
    if tainted w a || tainted w b then begin
      stage sp w 0 a gi;
      stage sp w 1 b (gi + 1);
      eval_ibin w op;
      commit sp w d j
    end
    else clean_reg w d
  | Instr.Fbin (op, d, a, b) ->
    if tainted w a || tainted w b then begin
      stage sp w 0 a gi;
      stage sp w 1 b (gi + 1);
      eval_fbin w op;
      commit sp w d j
    end
    else clean_reg w d
  | Instr.Iun (op, d, a) ->
    if tainted w a then begin
      stage sp w 0 a gi;
      eval_iun w op;
      commit sp w d j
    end
    else clean_reg w d
  | Instr.Fun1 (op, d, a) ->
    if tainted w a then begin
      stage sp w 0 a gi;
      eval_fun1 w op;
      commit sp w d j
    end
    else clean_reg w d
  | Instr.Icmp (c, d, a, b) ->
    if tainted w a || tainted w b then begin
      stage sp w 0 a gi;
      stage sp w 1 b (gi + 1);
      eval_icmp w c;
      commit sp w d j
    end
    else clean_reg w d
  | Instr.Fcmp (c, d, a, b) ->
    if tainted w a || tainted w b then begin
      stage sp w 0 a gi;
      stage sp w 1 b (gi + 1);
      eval_fcmp w c;
      commit sp w d j
    end
    else clean_reg w d
  | Instr.Cast (c, d, a) ->
    if tainted w a then begin
      stage sp w 0 a gi;
      eval_cast w c;
      commit sp w d j
    end
    else clean_reg w d
  | Instr.Select (d, c, a, b) ->
    if tainted w c || tainted w a || tainted w b then begin
      stage sp w 0 c gi;
      stage sp w 1 a (gi + 1);
      stage sp w 2 b (gi + 2);
      eval_select w;
      commit sp w d j
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
  | exception Crashes -> W_crash
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
   replay would report: per-writable-buffer max |Δ| (under
   {!Value.abs_diff}) in the plan's writable order, Misformatted and
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
      let t = Bytes.get w.mt e in
      if t <> Bytes.get rc.r_exit_t e then claimable := false
      else begin
        let x = word w.mw e and y = word rc.r_exit_w e in
        let d =
          if t = tag_int then begin
            let d = Int64.sub x y in
            (* |d| as float; Int64.min_int has no negation, map to +2^63. *)
            if d = Int64.min_int then 9.223372036854775808e18
            else Int64.to_float (if d < 0L then Int64.neg d else d)
          end
          else if x = y then 0.0
          else begin
            let d = Float.abs (Int64.float_of_bits x -. Int64.float_of_bits y) in
            if Float.is_nan d || d = infinity then infinity else d
          end
        in
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
