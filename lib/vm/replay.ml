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

let status_anomaly = function
  | Machine.Finished -> None
  | Machine.Trapped t -> Some (Trap t)
  | Machine.Out_of_budget -> Some Timeout

let machine_injection_of = function Fault f -> Some f | Mem_flip _ -> None

(* What a replay needs of an execution engine (see replay.mli). The
   drivers below are written once over it. *)
module type ENGINE = sig
  type t

  val enter : Golden.t -> int -> whole:bool -> t
  val mem_flip : t -> mem_flip -> unit

  val exec :
    Golden.t -> t -> int -> injection:Machine.injection option -> burst:int ->
    budget:int -> Machine.run

  val distance : Golden.t -> int -> t -> int -> float
  val differs : Golden.t -> int -> t -> int -> bool
  val nonfinite : t -> int -> bool
  val equal : Golden.t -> int -> t -> bool
end

(* The pre-decoded {!Unboxed} engine in this domain's {!Workspace}: a
   reset is a blit of the golden entry state, not an allocation. *)
module Unboxed_engine : ENGINE with type t = Workspace.t = struct
  type t = Workspace.t

  let enter golden i ~whole =
    let ws = Workspace.get golden in
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

  let exec (golden : Golden.t) (ws : t) i ~injection ~burst ~budget =
    let section = golden.Golden.sections.(i) in
    Unboxed.exec section.Golden.decoded ~regs:ws.Workspace.regs ~rtags:ws.Workspace.rtags
      ~scal_words:section.Golden.scal_words ~scal_tags:section.Golden.scal_tags
      ~buffers:ws.Workspace.views.(i) ~btags:ws.Workspace.vtags.(i) ~budget ?injection
      ~burst ()

  let distance golden k (ws : t) idx =
    Ustate.buffer_distance (Golden.state golden k) idx ws.Workspace.state idx

  let differs golden k (ws : t) idx =
    Ustate.buffer_distance ~stop_at:0.0 (Golden.state golden k) idx ws.Workspace.state idx
    > 0.0

  let nonfinite (ws : t) idx = Ustate.has_nonfinite ws.Workspace.state idx

  let equal golden k (ws : t) = Ustate.equal ws.Workspace.state (Golden.state golden k)
end

let exec_section ?(burst = 1) ?injection golden (section : Golden.section_run) ~edit
    ~timeout_factor =
  let si = section.Golden.section_index in
  let ws = Unboxed_engine.enter golden si ~whole:false in
  (match injection with Some (Mem_flip m) -> Unboxed_engine.mem_flip ws m | _ -> ());
  edit ws.Workspace.state;
  ( ws,
    Unboxed_engine.exec golden ws si
      ~injection:(Option.bind injection machine_injection_of)
      ~burst
      ~budget:(budget_of ~timeout_factor section.Golden.dyn_count) )

module type S = sig
  val run_section :
    ?burst:int -> Golden.t -> Golden.section_run -> injection -> timeout_factor:float ->
    section_replay

  val run_to_end :
    ?burst:int -> Golden.t -> from_section:int -> injection -> timeout_factor:float ->
    program_replay
end

module Driver (E : ENGINE) : S = struct
  (* One section from its golden entry, compared with its golden exit,
     boundary [si + 1]. *)
  let run_section ?(burst = 1) golden (section : Golden.section_run) injection
      ~timeout_factor =
    let si = section.Golden.section_index in
    let state = E.enter golden si ~whole:false in
    (match injection with Mem_flip m -> E.mem_flip state m | Fault _ -> ());
    let { Machine.status; executed } =
      E.exec golden state si ~injection:(machine_injection_of injection) ~burst
        ~budget:(budget_of ~timeout_factor section.Golden.dyn_count)
    in
    let anomaly = status_anomaly status in
    if anomaly <> None then
      {
        s_anomaly = anomaly;
        s_output_sdc = [||];
        s_side_effect = false;
        s_nonfinite = false;
        s_executed = executed;
      }
    else
      let k = si + 1 in
      let writable_idx = section.Golden.writable_idx in
      {
        s_anomaly = None;
        s_output_sdc =
          Array.map (fun idx -> (idx, E.distance golden k state idx)) writable_idx;
        (* any bound-but-not-writable buffer that differs from golden
           exit; unbound buffers cannot have changed, so the section's
           scan index is the complete set to inspect *)
        s_side_effect =
          Array.exists (fun idx -> E.differs golden k state idx) section.Golden.scan_idx;
        s_nonfinite = Array.exists (fun idx -> E.nonfinite state idx) writable_idx;
        s_executed = executed;
      }

  let run_to_end ?(burst = 1) golden ~from_section injection ~timeout_factor =
    if from_section < 0 || from_section >= Array.length golden.Golden.sections then
      invalid_arg "Replay.run_to_end: section index out of range";
    let state = E.enter golden from_section ~whole:true in
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
      let run : Machine.run =
        E.exec golden state !i ~injection ~burst
          ~budget:(budget_of ~timeout_factor sections.(!i).Golden.dyn_count)
      in
      executed := !executed + run.executed;
      anomaly := status_anomaly run.status;
      (* Approxilyzer-style early equivalence detection: once the faulty
         state coincides with the golden state at a section boundary, the
         deterministic remainder must produce the golden outputs — stop
         simulating (the error is masked from here on). Registers do not
         carry across sections, so comparing buffers is complete. *)
      if !anomaly = None && E.equal golden (!i + 1) state then converged := true;
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
        (idx, if converged then 0.0 else E.distance golden nsections state idx)
      in
      {
        p_anomaly = None;
        p_final_sdc = List.map distance outputs;
        p_nonfinite =
          (not converged) && List.exists (fun (idx, _) -> E.nonfinite state idx) outputs;
        p_executed = !executed;
      }
end

include Driver (Unboxed_engine)
