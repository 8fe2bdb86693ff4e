open Ff_ir
module A1 = Bigarray.Array1

type anomaly =
  | Trap of Machine.trap
  | Timeout

type mem_flip = {
  mf_buffer : int;
  mf_elem : int;
  mf_bits : int list;
}

type injection =
  | Fault of Machine.injection
  | Mem_flip of mem_flip

type engine =
  | Boxed
  | Unboxed

type section_replay = {
  s_anomaly : anomaly option;
  s_output_sdc : (int * float) array;
  s_side_effect : bool;
  s_nonfinite : bool;
  s_executed : int;
}

type program_replay = {
  p_anomaly : anomaly option;
  p_final_sdc : (int * float) list;
  p_nonfinite : bool;
  p_executed : int;
}

let budget_of ~timeout_factor dyn_count =
  max 16 (int_of_float (ceil (timeout_factor *. float_of_int dyn_count)))

(* [stop_at] is the caller's SDC threshold: once the running worst
   exceeds it the exact magnitude no longer matters, so the scan stops.
   The returned value is then only a witness that the threshold was
   crossed, not the true maximum. *)
let buffer_distance ?stop_at golden actual =
  let limit = match stop_at with None -> infinity | Some s -> s in
  let worst = ref 0.0 in
  let n = Array.length golden in
  let i = ref 0 in
  while !i < n && !worst <= limit do
    let d = Value.abs_diff golden.(!i) actual.(!i) in
    if d > !worst then worst := d;
    incr i
  done;
  !worst

let status_anomaly = function
  | Machine.Finished -> None
  | Machine.Trapped t -> Some (Trap t)
  | Machine.Out_of_budget -> Some Timeout

let machine_injection_of = function Fault f -> Some f | Mem_flip _ -> None

(* What a replay needs of an execution engine. [k] names golden boundary
   state k of the plan: the entry of section k, or the final state when
   k is the section count. The drivers below are written once over it. *)
module type ENGINE = sig
  type t

  val enter : Workspace.plan -> int -> whole:bool -> t
  (** a state at section [i]'s golden entry: the whole program state, or
      only section [i]'s bound buffers, the only ones a section replay
      reads or inspects *)

  val mem_flip : t -> mem_flip -> unit
  (** XOR the payload bits of one element, keeping its type tag — the
      engines agree bit for bit; out-of-range coordinates are a no-op, so
      a stale site enumeration can never crash a campaign *)

  val exec :
    Workspace.plan -> t -> int -> injection:Machine.injection option -> burst:int ->
    budget:int -> Machine.run

  val distance : Workspace.plan -> int -> t -> int -> float
  val differs : Workspace.plan -> int -> t -> int -> bool
  val nonfinite : t -> int -> bool
  val equal : Workspace.plan -> int -> t -> bool

  val capture : t -> int -> Value.t array
  (** a boxed deep copy of one buffer, which outlives the state *)
end

(* The tree-walking {!Machine} over a fresh boxed copy of the state: the
   reference oracle. *)
module Boxed_engine : ENGINE = struct
  type t = Value.t array array

  let golden_state (plan : Workspace.plan) k =
    let g = plan.Workspace.golden in
    if k = Array.length g.Golden.sections then g.Golden.final_state
    else g.Golden.sections.(k).Golden.entry_state

  let enter plan i ~whole:_ = Array.map Array.copy (golden_state plan i)

  let mem_flip (state : t) { mf_buffer; mf_elem; mf_bits } =
    if mf_buffer >= 0 && mf_buffer < Array.length state then begin
      let buf = state.(mf_buffer) in
      if mf_elem >= 0 && mf_elem < Array.length buf then
        buf.(mf_elem) <- List.fold_left Value.flip_bit buf.(mf_elem) mf_bits
    end

  let exec (plan : Workspace.plan) (state : t) i ~injection ~burst ~budget =
    let section = plan.Workspace.golden.Golden.sections.(i) in
    let buffers = Array.map (fun (idx, _) -> state.(idx)) section.Golden.bindings in
    Machine.exec section.Golden.kernel ~scalars:section.Golden.scalars ~buffers ~budget
      ~decoded:section.Golden.decoded ?injection ~burst ()

  let distance plan k (state : t) idx =
    buffer_distance (golden_state plan k).(idx) state.(idx)

  let differs plan k (state : t) idx =
    buffer_distance ~stop_at:0.0 (golden_state plan k).(idx) state.(idx) > 0.0

  let nonfinite (state : t) idx =
    Array.exists (fun v -> not (Value.is_finite v)) state.(idx)

  let equal plan k (state : t) =
    Array.for_all2 (Array.for_all2 Value.equal) state (golden_state plan k)

  let capture (state : t) idx = Array.copy state.(idx)
end

(* The pre-decoded {!Unboxed} engine in this domain's {!Workspace}: a
   reset is a blit of the plan's entry state, not an allocation. *)
module Unboxed_engine : ENGINE with type t = Workspace.t = struct
  type t = Workspace.t

  let enter plan i ~whole =
    let ws = Workspace.get plan in
    if whole then Workspace.load_entry ws i else Workspace.load_section_entry ws i;
    ws

  let mem_flip (ws : t) { mf_buffer; mf_elem; mf_bits } =
    let u = ws.Workspace.state in
    if mf_buffer >= 0 && mf_buffer < Array.length u.Ustate.words then begin
      let w = u.Ustate.words.(mf_buffer) in
      if mf_elem >= 0 && mf_elem < Ustate.dim w then begin
        let ib = Ustate.as_bits w in
        let flip word bit = Int64.logxor word (Int64.shift_left 1L (bit land 63)) in
        A1.set ib mf_elem (List.fold_left flip (A1.get ib mf_elem) mf_bits)
      end
    end

  let exec (plan : Workspace.plan) (ws : t) i ~injection ~burst ~budget =
    Unboxed.exec plan.Workspace.golden.Golden.sections.(i).Golden.decoded
      ~regs:ws.Workspace.regs ~rtags:ws.Workspace.rtags
      ~scal_words:plan.Workspace.scal_words.(i) ~scal_tags:plan.Workspace.scal_tags.(i)
      ~buffers:ws.Workspace.views.(i) ~btags:ws.Workspace.vtags.(i) ~budget ?injection
      ~burst ()

  let distance (plan : Workspace.plan) k (ws : t) idx =
    Ustate.buffer_distance plan.Workspace.states.(k) idx ws.Workspace.state idx

  let differs (plan : Workspace.plan) k (ws : t) idx =
    let golden = plan.Workspace.states.(k) in
    Ustate.buffer_distance ~stop_at:0.0 golden idx ws.Workspace.state idx > 0.0

  let nonfinite (ws : t) idx = Ustate.has_nonfinite ws.Workspace.state idx

  let equal (plan : Workspace.plan) k (ws : t) =
    Ustate.equal ws.Workspace.state plan.Workspace.states.(k)

  let capture (ws : t) idx = Ustate.values ws.Workspace.state idx
end

let exec_section ?(burst = 1) ?injection golden (section : Golden.section_run) ~edit
    ~timeout_factor =
  let plan = Workspace.plan_of golden in
  let si = section.Golden.section_index in
  let ws = Unboxed_engine.enter plan si ~whole:false in
  edit ws.Workspace.state;
  ( ws,
    Unboxed_engine.exec plan ws si ~injection ~burst
      ~budget:(budget_of ~timeout_factor section.Golden.dyn_count) )

module Driver (E : ENGINE) = struct
  (* One section from its golden entry, compared with its golden exit,
     boundary [si + 1]; [capture] lists the buffers to copy out of a
     completed run. *)
  let section ~burst ~capture golden (section : Golden.section_run) injection
      ~timeout_factor =
    let plan = Workspace.plan_of golden in
    let si = section.Golden.section_index in
    let state = E.enter plan si ~whole:false in
    (match injection with Mem_flip m -> E.mem_flip state m | Fault _ -> ());
    let run =
      E.exec plan state si ~injection:(machine_injection_of injection) ~burst
        ~budget:(budget_of ~timeout_factor section.Golden.dyn_count)
    in
    let anomaly = status_anomaly run.Machine.status in
    if anomaly <> None then
      ( {
          s_anomaly = anomaly;
          s_output_sdc = [||];
          s_side_effect = false;
          s_nonfinite = false;
          s_executed = run.Machine.executed;
        },
        None )
    else
      let k = si + 1 in
      let writable_idx = plan.Workspace.writable_idx.(si) in
      ( {
          s_anomaly = None;
          s_output_sdc =
            Array.map (fun idx -> (idx, E.distance plan k state idx)) writable_idx;
          (* any bound-but-not-writable buffer that differs from golden
             exit; unbound buffers cannot have changed, so the plan's scan
             index is the complete set to inspect *)
          s_side_effect =
            Array.exists
              (fun idx -> E.differs plan k state idx)
              plan.Workspace.scan_idx.(si);
          s_nonfinite = Array.exists (fun idx -> E.nonfinite state idx) writable_idx;
          s_executed = run.Machine.executed;
        },
        (* taken before the state is reused, as bit-identical boxed values
           on both engines; a buffer the section does not bind is out of
           its scope, and the section's entry need not restore it *)
        match capture with
        | None -> None
        | Some buffers ->
          let bound = plan.Workspace.bound_idx.(si) in
          let copy idx =
            if Array.mem idx bound then E.capture state idx
            else Ustate.values plan.Workspace.states.(si) idx
          in
          Some (Array.map copy buffers) )

  let to_end ~burst golden ~from_section injection ~timeout_factor =
    let plan = Workspace.plan_of golden in
    let state = E.enter plan from_section ~whole:true in
    (match injection with Mem_flip m -> E.mem_flip state m | Fault _ -> ());
    let machine_inj = machine_injection_of injection in
    let sections = golden.Golden.sections in
    let nsections = Array.length sections in
    let executed = ref 0 in
    let anomaly = ref None in
    let i = ref from_section in
    let converged = ref false in
    while (not !converged) && !anomaly = None && !i < nsections do
      let injection = if !i = from_section then machine_inj else None in
      let run =
        E.exec plan state !i ~injection ~burst
          ~budget:(budget_of ~timeout_factor sections.(!i).Golden.dyn_count)
      in
      executed := !executed + run.Machine.executed;
      anomaly := status_anomaly run.Machine.status;
      (* Approxilyzer-style early equivalence detection: once the faulty
         state coincides with the golden state at a section boundary, the
         deterministic remainder must produce the golden outputs — stop
         simulating (the error is masked from here on). Registers do not
         carry across sections, so comparing buffers is complete. *)
      if !anomaly = None && E.equal plan (!i + 1) state then converged := true;
      incr i
    done;
    match !anomaly with
    | Some _ ->
      {
        p_anomaly = !anomaly;
        p_final_sdc = [];
        p_nonfinite = false;
        p_executed = !executed;
      }
    | None ->
      (* a converged run ends in the golden outputs *)
      let converged = !converged in
      let outputs = Program.output_buffers golden.Golden.program in
      let distance (idx, _) =
        (idx, if converged then 0.0 else E.distance plan nsections state idx)
      in
      {
        p_anomaly = None;
        p_final_sdc = List.map distance outputs;
        p_nonfinite =
          (not converged) && List.exists (fun (idx, _) -> E.nonfinite state idx) outputs;
        p_executed = !executed;
      }
end

module Boxed_driver = Driver (Boxed_engine)
module Unboxed_driver = Driver (Unboxed_engine)

let section_driver = function
  | Boxed -> Boxed_driver.section
  | Unboxed -> Unboxed_driver.section

let run_section_capture ?(burst = 1) ?(engine = Unboxed) golden section injection
    ~timeout_factor ~buffers =
  section_driver engine ~burst ~capture:(Some buffers) golden section injection
    ~timeout_factor

let run_section ?(burst = 1) ?(engine = Unboxed) golden section injection
    ~timeout_factor =
  fst
    (section_driver engine ~burst ~capture:None golden section injection ~timeout_factor)

let run_to_end ?(burst = 1) ?(engine = Unboxed) golden ~from_section injection
    ~timeout_factor =
  if from_section < 0 || from_section >= Array.length golden.Golden.sections then
    invalid_arg "Replay.run_to_end: section index out of range";
  (match engine with Boxed -> Boxed_driver.to_end | Unboxed -> Unboxed_driver.to_end)
    ~burst golden ~from_section injection ~timeout_factor
