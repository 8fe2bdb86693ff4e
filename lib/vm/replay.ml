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

let has_nonfinite arr = Array.exists (fun v -> not (Value.is_finite v)) arr

let status_anomaly = function
  | Machine.Finished -> None
  | Machine.Trapped t -> Some (Trap t)
  | Machine.Out_of_budget -> Some Timeout

(* Entry-state corruption for the memory-flip model, applied before the
   engine starts. The two appliers are bit-equivalent: [Value.flip_bit]
   XORs the payload bits and preserves the value's type, exactly what
   XORing the word while leaving the tag byte does on the unboxed side.
   Out-of-range coordinates are a no-op (identically on both engines)
   rather than an error, so a stale site enumeration can never crash a
   campaign. *)
let mask_of_bits bits =
  List.fold_left (fun m bit -> Int64.logxor m (Int64.shift_left 1L (bit land 63))) 0L bits

let apply_mem_flip_boxed (state : Value.t array array) { mf_buffer; mf_elem; mf_bits } =
  if mf_buffer >= 0 && mf_buffer < Array.length state then begin
    let buf = state.(mf_buffer) in
    if mf_elem >= 0 && mf_elem < Array.length buf then
      buf.(mf_elem) <- List.fold_left Value.flip_bit buf.(mf_elem) mf_bits
  end

let apply_mem_flip_unboxed (u : Ustate.t) { mf_buffer; mf_elem; mf_bits } =
  if mf_buffer >= 0 && mf_buffer < Array.length u.Ustate.words then begin
    let w = u.Ustate.words.(mf_buffer) in
    if mf_elem >= 0 && mf_elem < Ustate.dim w then begin
      let ib = Ustate.as_bits w in
      A1.set ib mf_elem (Int64.logxor (A1.get ib mf_elem) (mask_of_bits mf_bits))
    end
  end

let machine_injection_of = function Fault f -> Some f | Mem_flip _ -> None

let anomalous_section run =
  {
    s_anomaly = status_anomaly run.Machine.status;
    s_output_sdc = [||];
    s_side_effect = false;
    s_nonfinite = false;
    s_executed = run.Machine.executed;
  }

let run_section_boxed ~burst ~capture golden (section : Golden.section_run) injection
    ~timeout_factor =
  let plan = Workspace.plan_of golden in
  let state = Array.map Array.copy section.Golden.entry_state in
  (match injection with Mem_flip m -> apply_mem_flip_boxed state m | Fault _ -> ());
  let buffers = Array.map (fun (idx, _) -> state.(idx)) section.Golden.bindings in
  let budget = budget_of ~timeout_factor section.Golden.dyn_count in
  let run =
    Machine.exec section.Golden.kernel ~scalars:section.Golden.scalars ~buffers ~budget
      ~decoded:section.Golden.decoded
      ?injection:(machine_injection_of injection)
      ~burst ()
  in
  match status_anomaly run.Machine.status with
  | Some _ -> (anomalous_section run, None)
  | None ->
    let si = section.Golden.section_index in
    let golden_exit = Golden.exit_state golden si in
    let writable_idx = plan.Workspace.writable_idx.(si) in
    let output_sdc =
      Array.map (fun idx -> (idx, buffer_distance golden_exit.(idx) state.(idx)))
        writable_idx
    in
    let side_effect =
      (* any bound-but-not-writable buffer that differs from golden exit;
         unbound buffers cannot have changed, so the plan's scan index is
         the complete set to inspect *)
      let scan_idx = plan.Workspace.scan_idx.(si) in
      let n = Array.length scan_idx in
      let rec scan i =
        if i >= n then false
        else
          let idx = scan_idx.(i) in
          if buffer_distance ~stop_at:0.0 golden_exit.(idx) state.(idx) > 0.0 then true
          else scan (i + 1)
      in
      scan 0
    in
    let nonfinite = Array.exists (fun idx -> has_nonfinite state.(idx)) writable_idx in
    ( {
        s_anomaly = None;
        s_output_sdc = output_sdc;
        s_side_effect = side_effect;
        s_nonfinite = nonfinite;
        s_executed = run.Machine.executed;
      },
      (* Captures are deep copies, taken before the state is reused; both
         engines capture boxed values, bit-identical to each other. *)
      Option.map (Array.map (fun i -> Array.copy state.(i))) capture )

let exec_section ?(burst = 1) ?injection golden (section : Golden.section_run) ~edit
    ~timeout_factor =
  let plan = Workspace.plan_of golden in
  let ws = Workspace.get plan in
  let si = section.Golden.section_index in
  Workspace.load_section_entry ws si;
  edit ws.Workspace.state;
  let run =
    Unboxed.exec section.Golden.decoded ~regs:ws.Workspace.regs ~rtags:ws.Workspace.rtags
      ~scal_words:plan.Workspace.scal_words.(si) ~scal_tags:plan.Workspace.scal_tags.(si)
      ~buffers:ws.Workspace.views.(si) ~btags:ws.Workspace.vtags.(si)
      ~budget:(budget_of ~timeout_factor section.Golden.dyn_count)
      ?injection ~burst ()
  in
  (ws, run)

let run_section_unboxed ~burst ~capture golden (section : Golden.section_run) injection
    ~timeout_factor =
  let edit =
    match injection with Mem_flip m -> fun u -> apply_mem_flip_unboxed u m | Fault _ -> ignore
  in
  let ws, run =
    exec_section ~burst ?injection:(machine_injection_of injection) golden section ~edit
      ~timeout_factor
  in
  match status_anomaly run.Machine.status with
  | Some _ -> (anomalous_section run, None)
  | None ->
    let plan = ws.Workspace.plan in
    let si = section.Golden.section_index in
    let exit_u = plan.Workspace.states.(si + 1) in
    let state = ws.Workspace.state in
    let writable_idx = plan.Workspace.writable_idx.(si) in
    let output_sdc =
      Array.map (fun idx -> (idx, Ustate.buffer_distance exit_u idx state idx))
        writable_idx
    in
    let side_effect =
      let scan_idx = plan.Workspace.scan_idx.(si) in
      let n = Array.length scan_idx in
      let rec scan i =
        if i >= n then false
        else
          let idx = scan_idx.(i) in
          if Ustate.buffer_distance ~stop_at:0.0 exit_u idx state idx > 0.0 then true
          else scan (i + 1)
      in
      scan 0
    in
    let nonfinite =
      Array.exists (fun idx -> Ustate.has_nonfinite state idx) writable_idx
    in
    ( {
        s_anomaly = None;
        s_output_sdc = output_sdc;
        s_side_effect = side_effect;
        s_nonfinite = nonfinite;
        s_executed = run.Machine.executed;
      },
      Option.map (Array.map (Ustate.values state)) capture )

let run_section ?(burst = 1) ?(engine = Unboxed) golden
    (section : Golden.section_run) injection ~timeout_factor =
  fst
    (match engine with
    | Boxed -> run_section_boxed ~burst ~capture:None golden section injection ~timeout_factor
    | Unboxed ->
      run_section_unboxed ~burst ~capture:None golden section injection ~timeout_factor)

let run_section_capture ?(burst = 1) ?(engine = Unboxed) golden
    (section : Golden.section_run) injection ~timeout_factor ~buffers =
  let capture = Some buffers in
  match engine with
  | Boxed -> run_section_boxed ~burst ~capture golden section injection ~timeout_factor
  | Unboxed -> run_section_unboxed ~burst ~capture golden section injection ~timeout_factor

let states_equal a b =
  let n = Array.length a in
  let rec buffers_equal i =
    if i >= n then true
    else begin
      let ba = a.(i) and bb = b.(i) in
      let m = Array.length ba in
      let rec elems_equal j =
        if j >= m then true
        else if Value.equal ba.(j) bb.(j) then elems_equal (j + 1)
        else false
      in
      if elems_equal 0 then buffers_equal (i + 1) else false
    end
  in
  buffers_equal 0

let converged_program golden ~executed =
  {
    p_anomaly = None;
    p_final_sdc =
      Program.output_buffers golden.Golden.program |> List.map (fun (idx, _) -> (idx, 0.0));
    p_nonfinite = false;
    p_executed = executed;
  }

let run_to_end_boxed ~burst golden ~from_section injection ~timeout_factor =
  let sections = golden.Golden.sections in
  let state = Array.map Array.copy sections.(from_section).Golden.entry_state in
  (match injection with Mem_flip m -> apply_mem_flip_boxed state m | Fault _ -> ());
  let machine_inj = machine_injection_of injection in
  let executed = ref 0 in
  let anomaly = ref None in
  let i = ref from_section in
  let converged = ref false in
  while (not !converged) && !anomaly = None && !i < Array.length sections do
    let section = sections.(!i) in
    let buffers = Array.map (fun (idx, _) -> state.(idx)) section.Golden.bindings in
    let budget = budget_of ~timeout_factor section.Golden.dyn_count in
    let inj = if !i = from_section then machine_inj else None in
    let run =
      Machine.exec section.Golden.kernel ~scalars:section.Golden.scalars ~buffers ~budget
        ~decoded:section.Golden.decoded ?injection:inj ~burst ()
    in
    executed := !executed + run.Machine.executed;
    anomaly := status_anomaly run.Machine.status;
    (* Approxilyzer-style early equivalence detection: once the faulty
       state coincides with the golden state at a section boundary, the
       deterministic remainder must produce the golden outputs — stop
       simulating (the error is masked from here on). Registers do not
       carry across sections, so comparing buffers is complete. *)
    if !anomaly = None && states_equal state (Golden.exit_state golden !i) then
      converged := true;
    incr i
  done;
  if !converged then converged_program golden ~executed:!executed
  else
    match !anomaly with
    | Some a ->
      { p_anomaly = Some a; p_final_sdc = []; p_nonfinite = false; p_executed = !executed }
    | None ->
      let final_sdc =
        Program.output_buffers golden.Golden.program
        |> List.map (fun (idx, _) ->
               (idx, buffer_distance golden.Golden.final_state.(idx) state.(idx)))
      in
      let nonfinite =
        Program.output_buffers golden.Golden.program
        |> List.exists (fun (idx, _) -> has_nonfinite state.(idx))
      in
      {
        p_anomaly = None;
        p_final_sdc = final_sdc;
        p_nonfinite = nonfinite;
        p_executed = !executed;
      }

let run_to_end_unboxed ~burst golden ~from_section injection ~timeout_factor =
  let plan = Workspace.plan_of golden in
  let ws = Workspace.get plan in
  Workspace.load_entry ws from_section;
  let state = ws.Workspace.state in
  (match injection with Mem_flip m -> apply_mem_flip_unboxed state m | Fault _ -> ());
  let machine_inj = machine_injection_of injection in
  let sections = golden.Golden.sections in
  let nsections = Array.length sections in
  let executed = ref 0 in
  let anomaly = ref None in
  let i = ref from_section in
  let converged = ref false in
  while (not !converged) && !anomaly = None && !i < nsections do
    let section = sections.(!i) in
    let budget = budget_of ~timeout_factor section.Golden.dyn_count in
    let inj = if !i = from_section then machine_inj else None in
    let run =
      Unboxed.exec section.Golden.decoded ~regs:ws.Workspace.regs
        ~rtags:ws.Workspace.rtags ~scal_words:plan.Workspace.scal_words.(!i)
        ~scal_tags:plan.Workspace.scal_tags.(!i) ~buffers:ws.Workspace.views.(!i)
        ~btags:ws.Workspace.vtags.(!i) ~budget ?injection:inj ~burst ()
    in
    executed := !executed + run.Machine.executed;
    anomaly := status_anomaly run.Machine.status;
    if !anomaly = None && Ustate.equal state plan.Workspace.states.(!i + 1) then
      converged := true;
    incr i
  done;
  if !converged then converged_program golden ~executed:!executed
  else
    match !anomaly with
    | Some a ->
      { p_anomaly = Some a; p_final_sdc = []; p_nonfinite = false; p_executed = !executed }
    | None ->
      let final_u = plan.Workspace.states.(nsections) in
      let final_sdc =
        Program.output_buffers golden.Golden.program
        |> List.map (fun (idx, _) -> (idx, Ustate.buffer_distance final_u idx state idx))
      in
      let nonfinite =
        Program.output_buffers golden.Golden.program
        |> List.exists (fun (idx, _) -> Ustate.has_nonfinite state idx)
      in
      {
        p_anomaly = None;
        p_final_sdc = final_sdc;
        p_nonfinite = nonfinite;
        p_executed = !executed;
      }

let run_to_end ?(burst = 1) ?(engine = Unboxed) golden ~from_section injection
    ~timeout_factor =
  let sections = golden.Golden.sections in
  if from_section < 0 || from_section >= Array.length sections then
    invalid_arg "Replay.run_to_end: section index out of range";
  match engine with
  | Boxed -> run_to_end_boxed ~burst golden ~from_section injection ~timeout_factor
  | Unboxed -> run_to_end_unboxed ~burst golden ~from_section injection ~timeout_factor
