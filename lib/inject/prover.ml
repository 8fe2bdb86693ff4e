open Ff_ir
open Ff_vm
module Hashing = Ff_support.Hashing
module Telemetry = Ff_support.Telemetry
module Ephemeron_cache = Ff_support.Ephemeron_cache

(* Static outcome prover: decide the outcome of whole equivalence
   classes from the decoded IR and the golden trace alone, before any
   replay. The core is an exact single-fault forward walk along the
   section's concrete golden schedule: starting from the flipped
   operand, it tracks the exact faulty value of every corrupted register
   and memory element, evaluating corrupted instructions with the
   reference interpreter's own operation semantics ({!Machine.eval_ibin}
   and friends, including their trap conditions). As long as control
   flow and memory addressing stay on the golden path, the walk is a
   bit-exact mirror of what a replay would compute, so every decision it
   reaches — the taint dies (Masked), the fault provably traps (Crash),
   or it completes with an exactly-known output perturbation (Benign
   SDC) — equals the replay outcome by construction. Anything else
   (control divergence, reads/writes through a corrupted address,
   non-finite faulty values, side-effect writes) is left undecided and
   fanned out to the replay pool as before: the prover may abstain, it
   may never disagree.

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

exception Invalid_recording

type recording = {
  r_soff : int array;       (* dyn -> offset of its source values in [r_svals] *)
  r_svals : Value.t array;  (* flat golden source-operand values, per dyn *)
  r_dvals : Value.t array;  (* golden destination value after each dyn *)
  r_slot_idx : int array;   (* kernel buffer slot -> program buffer index *)
  r_buf_len : int array;    (* per program buffer index (bound ones only) *)
  r_mem_access : (int * int, int array) Hashtbl.t;
      (* (buffer, element) -> ascending dyns of its golden Load/Stores *)
}

type section_prover = {
  section : Golden.section_run;
  burst : int;
  recording : recording;
  golden_exit : Value.t array array;
  writable : bool array;  (* per program buffer index *)
  writable_idx : int array;
  exit_nonfinite : bool;  (* golden exit writables already non-finite *)
  final_zero : (int * float) list;  (* converged replay's F_sdc payload *)
}

(* Re-execute the section with {!Machine.step}, recording the golden
   value of every source operand (before) and destination (after) of
   every dynamic instruction. The pc stream is checked against the
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
  let svals = Array.make (max 1 soff.(dyn_count)) (Value.Int 0L) in
  let dvals = Array.make (max 1 dyn_count) (Value.Int 0L) in
  let regs = Array.make decoded.Decode.nregs (Value.Int 0L) in
  List.iteri (fun i v -> regs.(i) <- v) section.Golden.scalars;
  (* One copy per distinct program buffer: slots bound to the same
     buffer must alias, exactly as in Machine.exec. *)
  let nprog = Array.length section.Golden.entry_state in
  let state = Array.make nprog [||] in
  let seen = Array.make nprog false in
  Array.iter
    (fun (idx, _) ->
      if not seen.(idx) then begin
        seen.(idx) <- true;
        state.(idx) <- Array.copy section.Golden.entry_state.(idx)
      end)
    section.Golden.bindings;
  let slot_idx = Array.map fst section.Golden.bindings in
  let buffers = Array.map (fun idx -> state.(idx)) slot_idx in
  (* Golden memory-access schedule: for each touched element, the dyns
     of its Loads/Stores in order. The walk uses it to leap over clean
     stretches once all register taint has died. *)
  let accesses : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let note_access slot idx j =
    let key = (slot_idx.(slot), Int64.to_int idx) in
    match Hashtbl.find_opt accesses key with
    | Some l -> l := j :: !l
    | None -> Hashtbl.add accesses key (ref [ j ])
  in
  (try
     let pc = ref 0 in
     for j = 0 to dyn_count - 1 do
       if !pc <> trace.(j) then raise Invalid_recording;
       let instr = code.(!pc) in
       let base = soff.(j) in
       Array.iteri (fun k r -> svals.(base + k) <- regs.(r)) (Decode.srcs_at decoded !pc);
       let next = Machine.step regs buffers instr ~pc:!pc in
       (* A Load's or Store's first source is its index. *)
       (match instr with
       | Instr.Load (_, slot, _) | Instr.Store (slot, _, _) ->
         note_access slot (Machine.as_int svals.(base)) j
       | _ -> ());
       let d = Decode.dst_at decoded !pc in
       if d >= 0 then dvals.(j) <- regs.(d);
       if next < 0 && j <> dyn_count - 1 then raise Invalid_recording;
       pc := next
     done
   with Machine.Trap _ -> raise Invalid_recording);
  (* Exit-state validation: every bound buffer must match the golden
     exit bit for bit. *)
  Array.iter
    (fun (idx, _) ->
      let a = state.(idx) and b = golden_exit.(idx) in
      if Array.length a <> Array.length b then raise Invalid_recording;
      Array.iteri
        (fun e v -> if not (Value.equal v b.(e)) then raise Invalid_recording)
        a)
    section.Golden.bindings;
  let buf_len = Array.make nprog 0 in
  Array.iteri (fun idx buf -> if seen.(idx) then buf_len.(idx) <- Array.length buf) state;
  let mem_access = Hashtbl.create (Hashtbl.length accesses) in
  Hashtbl.iter
    (fun key l -> Hashtbl.add mem_access key (Array.of_list (List.rev !l)))
    accesses;
  {
    r_soff = soff;
    r_svals = svals;
    r_dvals = dvals;
    r_slot_idx = slot_idx;
    r_buf_len = buf_len;
    r_mem_access = mem_access;
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
          burst;
          recording;
          golden_exit;
          writable;
          writable_idx;
          exit_nonfinite;
          final_zero =
            Program.output_buffers golden.Golden.program
            |> List.map (fun (idx, _) -> (idx, 0.0));
        }
  end

type walk =
  | W_crash  (** the faulty run provably traps inside the section *)
  | W_complete of (int * int, Value.t) Hashtbl.t
      (** ran to Halt on the golden path; the table holds every memory
          element whose faulty value differs from golden (bit-wise) *)
  | W_undecided

exception Divergent

(* The exact single-fault walk. Taint values are always bit-different
   from their golden counterparts; an instruction whose operands are all
   clean recomputes the golden result, so only its destination taint is
   killed and nothing is evaluated. *)
let walk sp ~at_dyn ~operand ~bit =
  let { r_soff = soff; r_svals = svals; r_dvals = dvals; r_slot_idx = slot_idx;
        r_buf_len = buf_len; r_mem_access = mem_access } =
    sp.recording
  in
  let decoded = sp.section.Golden.decoded in
  let code = sp.section.Golden.kernel.Kernel.code in
  let trace = sp.section.Golden.trace in
  let dyn_count = sp.section.Golden.dyn_count in
  let rtaint = Array.make decoded.Decode.nregs None in
  let mtaint : (int * int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let rt_count = ref 0 in
  let set_reg r v =
    (match (rtaint.(r), v) with
    | None, Some _ -> incr rt_count
    | Some _, None -> decr rt_count
    | _ -> ());
    rtaint.(r) <- v
  in
  let set_mem key v =
    match v with
    | Some f -> Hashtbl.replace mtaint key f
    | None -> Hashtbl.remove mtaint key
  in
  (* Smallest golden access of [key] at or after dyn [j] (max_int when
     the rest of the schedule never touches it again). *)
  let next_access key j =
    match Hashtbl.find_opt mem_access key with
    | None -> max_int
    | Some arr ->
      let lo = ref 0 and hi = ref (Array.length arr) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if arr.(mid) < j then lo := mid + 1 else hi := mid
      done;
      if !lo < Array.length arr then arr.(!lo) else max_int
  in
  let flips = Machine.burst_bits ~bit ~burst:sp.burst in
  let flip v = List.fold_left Value.flip_bit v flips in
  (* Seed the taint. Osrc corrupts the register before the instruction
     at [at_dyn] reads it; Odst corrupts the freshly-written destination
     after it, so the walk resumes at the next dyn. *)
  let start =
    match operand with
    | Site.Src k ->
      let pc = trace.(at_dyn) in
      let ss = Decode.srcs_at decoded pc in
      if k < Array.length ss then begin
        let g = svals.(soff.(at_dyn) + k) in
        let f = flip g in
        if not (Value.equal f g) then set_reg ss.(k) (Some f)
      end;
      at_dyn
    | Site.Dst ->
      let pc = trace.(at_dyn) in
      let d = Decode.dst_at decoded pc in
      if d >= 0 then begin
        let g = dvals.(at_dyn) in
        let f = flip g in
        if not (Value.equal f g) then set_reg d (Some f)
      end;
      at_dyn + 1
    | Site.Op | Site.Mem _ ->
      (* walk_pilot filters these out; the walk only mirrors register
         flips *)
      invalid_arg "Prover.walk: non-register operand"
  in
  try
    let j = ref start in
    let commit d jj v =
      if Value.equal v dvals.(jj) then set_reg d None else set_reg d (Some v)
    in
    (* One dynamic instruction. Operand registers come straight off the
       instruction constructors (same order as [Instr.srcs], which is
       what indexes [svals]); the common all-clean case touches only
       [rtaint] and kills the destination without evaluating anything. *)
    let step () =
      let jj = !j in
      let pc = trace.(jj) in
      let base = soff.(jj) in
      (match code.(pc) with
      | Instr.Jmp _ | Instr.Halt -> ()
      | Instr.Br (c, _, _) -> (
        match rtaint.(c) with
        | None -> ()
        | Some fv ->
          let f = Machine.as_int fv in
          let g = Machine.as_int svals.(base) in
          if (f <> 0L) <> (g <> 0L) then raise Divergent)
      | Instr.Store (slot, i, v) -> (
        let bidx = slot_idx.(slot) in
        match rtaint.(i) with
        | Some fv ->
          let fidx = Machine.as_int fv in
          if fidx < 0L || fidx >= Int64.of_int buf_len.(bidx) then
            raise (Machine.Trap Machine.Out_of_bounds)
          else
            (* in-bounds write through a corrupted address: the walk
               would have to know golden memory it never recorded *)
            raise Divergent
        | None ->
          let idx = Int64.to_int (Machine.as_int svals.(base)) in
          set_mem (bidx, idx) rtaint.(v))
      | Instr.Load (d, slot, i) -> (
        let bidx = slot_idx.(slot) in
        match rtaint.(i) with
        | Some fv ->
          let fidx = Machine.as_int fv in
          if fidx < 0L || fidx >= Int64.of_int buf_len.(bidx) then
            raise (Machine.Trap Machine.Out_of_bounds)
          else raise Divergent
        | None -> (
          let idx = Int64.to_int (Machine.as_int svals.(base)) in
          match Hashtbl.find_opt mtaint (bidx, idx) with
          | Some v -> commit d jj v
          | None -> set_reg d None))
      | Instr.Iconst (d, _) | Instr.Fconst (d, _) -> set_reg d None
      | Instr.Mov (d, s) -> (
        match rtaint.(s) with Some v -> commit d jj v | None -> set_reg d None)
      | Instr.Ibin (op, d, a, b) -> (
        match (rtaint.(a), rtaint.(b)) with
        | None, None -> set_reg d None
        | ta, tb ->
          let va = match ta with Some v -> v | None -> svals.(base) in
          let vb = match tb with Some v -> v | None -> svals.(base + 1) in
          commit d jj (Value.Int (Machine.eval_ibin op (Machine.as_int va) (Machine.as_int vb))))
      | Instr.Fbin (op, d, a, b) -> (
        match (rtaint.(a), rtaint.(b)) with
        | None, None -> set_reg d None
        | ta, tb ->
          let va = match ta with Some v -> v | None -> svals.(base) in
          let vb = match tb with Some v -> v | None -> svals.(base + 1) in
          commit d jj
            (Value.Float (Machine.eval_fbin op (Machine.as_float va) (Machine.as_float vb))))
      | Instr.Iun (op, d, a) -> (
        match rtaint.(a) with
        | None -> set_reg d None
        | Some v -> commit d jj (Value.Int (Machine.eval_iun op (Machine.as_int v))))
      | Instr.Fun1 (op, d, a) -> (
        match rtaint.(a) with
        | None -> set_reg d None
        | Some v -> commit d jj (Value.Float (Machine.eval_funop op (Machine.as_float v))))
      | Instr.Icmp (c, d, a, b) -> (
        match (rtaint.(a), rtaint.(b)) with
        | None, None -> set_reg d None
        | ta, tb ->
          let va = match ta with Some v -> v | None -> svals.(base) in
          let vb = match tb with Some v -> v | None -> svals.(base + 1) in
          commit d jj
            (Value.Int
               (if Machine.eval_icmp c (Machine.as_int va) (Machine.as_int vb) then 1L else 0L)))
      | Instr.Fcmp (c, d, a, b) -> (
        match (rtaint.(a), rtaint.(b)) with
        | None, None -> set_reg d None
        | ta, tb ->
          let va = match ta with Some v -> v | None -> svals.(base) in
          let vb = match tb with Some v -> v | None -> svals.(base + 1) in
          commit d jj
            (Value.Int
               (if Machine.eval_fcmp c (Machine.as_float va) (Machine.as_float vb) then 1L
                else 0L)))
      | Instr.Cast (c, d, a) -> (
        match rtaint.(a) with
        | None -> set_reg d None
        | Some v -> commit d jj (Machine.eval_cast c v))
      | Instr.Select (d, c, a, b) -> (
        match (rtaint.(c), rtaint.(a), rtaint.(b)) with
        | None, None, None -> set_reg d None
        | tc, ta, tb ->
          let vc = match tc with Some v -> v | None -> svals.(base) in
          let va = match ta with Some v -> v | None -> svals.(base + 1) in
          let vb = match tb with Some v -> v | None -> svals.(base + 2) in
          commit d jj (if Machine.as_int vc <> 0L then va else vb)));
      incr j
    in
    let finished = ref false in
    while (not !finished) && !j < dyn_count do
      if !rt_count > 0 then step ()
      else if Hashtbl.length mtaint = 0 then finished := true
      else begin
        (* All register taint is dead, so execution tracks the golden
           path exactly until it next touches a tainted element: clean
           stores to clean elements rewrite golden values and clean
           loads of clean elements recompute golden registers. Leap
           straight to that access instead of stepping through the
           clean stretch. *)
        let nxt = ref max_int in
        Hashtbl.iter
          (fun key _ ->
            let a = next_access key !j in
            if a < !nxt then nxt := a)
          mtaint;
        if !nxt >= dyn_count then j := dyn_count
        else begin
          j := !nxt;
          step ()
        end
      end
    done;
    W_complete mtaint
  with
  | Machine.Trap _ -> W_crash
  | Divergent -> W_undecided

(* Map a completed walk's memory taint to the exact section outcome a
   replay would report: per-writable-buffer max |Δ| in the plan's
   writable order, Misformatted and side-effect cases declined. So is a
   tainted element whose type differs from golden (an untyped kernel can
   store either kind): the replay's distance raises on it, so there is
   no outcome to claim. *)
let section_outcome_of_mem sp mem =
  if sp.exit_nonfinite then None
  else begin
    let nonfinite = ref false in
    let side_effect = ref false in
    let mistyped = ref false in
    let mags = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (bidx, e) v ->
        let g = sp.golden_exit.(bidx).(e) in
        if not (Value.ty_equal (Value.ty g) (Value.ty v)) then mistyped := true
        else begin
          let d = Value.abs_diff g v in
          if sp.writable.(bidx) then begin
            if not (Value.is_finite v) then nonfinite := true;
            let cur = match Hashtbl.find_opt mags bidx with Some m -> m | None -> 0.0 in
            if d > cur then Hashtbl.replace mags bidx d
          end
          else if d > 0.0 then side_effect := true
        end)
      mem;
    if !nonfinite || !side_effect || !mistyped then None
    else begin
      let sdc =
        Array.map
          (fun idx ->
            (idx, match Hashtbl.find_opt mags idx with Some m -> m | None -> 0.0))
          sp.writable_idx
      in
      Some (Outcome.S_sdc sdc)
    end
  end

(* Walk a class pilot's flip. Only register flips in this section can
   be walked: [Op] and [Mem] pilots come from models that abstain
   wholesale before reaching here, but the guard keeps the prover
   total. *)
let walk_pilot sp (cls : Eqclass.t) =
  let pilot = Eqclass.pilot cls in
  match pilot.Site.operand with
  | (Site.Src _ | Site.Dst)
    when pilot.Site.section = sp.section.Golden.section_index
         && pilot.Site.dyn >= 0
         && pilot.Site.dyn < sp.section.Golden.dyn_count ->
    walk sp ~at_dyn:pilot.Site.dyn ~operand:pilot.Site.operand ~bit:pilot.Site.bit
  | _ -> W_undecided

(* One scope of the pre-pass: the outcome a finished walk proves, if
   any, and the counters a proved or undecided class bumps. *)
type 'o scope = {
  decide : section_prover -> walk -> 'o option;
  proved : 'o -> unit;
  undecided : Telemetry.counter;
}

let section_scope =
  {
    decide =
      (fun sp -> function
        | W_crash -> Some (Outcome.S_detected Outcome.Crash)
        | W_undecided -> None
        | W_complete mem -> section_outcome_of_mem sp mem);
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
      (fun sp -> function
        | W_crash -> Some (Outcome.F_detected Outcome.Crash)
        | W_complete mem when Hashtbl.length mem = 0 ->
          (* No memory taint at the section boundary and registers do
             not carry across sections: the replay converges with the
             golden state right there, which run_to_end reports as
             all-zero final SDC over the program outputs. *)
          Some (Outcome.F_sdc sp.final_zero)
        | W_complete _ | W_undecided -> None);
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
      Array.map
        (fun cls ->
          let proof = scope.decide sp (walk_pilot sp cls) in
          (match proof with
          | Some o -> scope.proved o
          | None -> Telemetry.incr scope.undecided);
          proof)
        classes

let prove_section golden = prove section_scope golden
let prove_final golden = prove final_scope golden
