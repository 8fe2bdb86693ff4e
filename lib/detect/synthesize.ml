open Ff_ir
module Golden = Ff_vm.Golden
module Machine = Ff_vm.Machine
module Replay = Ff_vm.Replay
module Ustate = Ff_vm.Ustate
module Workspace = Ff_vm.Workspace
module Site = Ff_inject.Site
module Sensitivity = Ff_sensitivity.Sensitivity
module Hashing = Ff_support.Hashing
module Rng = Ff_support.Rng
module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry

let m_sections = Telemetry.counter "detect.synthesize.sections"
let m_candidates = Telemetry.counter "detect.synthesize.candidates"
let m_dropped = Telemetry.counter "detect.synthesize.dropped_fp"
let m_runs = Telemetry.counter "detect.synthesize.benign_runs"
let m_work = Telemetry.counter "detect.synthesize.work"

type t = {
  candidates : Detector.t array array;
  spec_hash : int64;
  train_runs : int;
  validation_runs : int;
  fp_fires : int;
  dropped : int;
  work : int;
}

(* One benign run: the sensitivity estimator's perturbation of one
   readable buffer of the section's entry state, then the section. The
   run's randomness comes entirely from [rng], which callers derive from
   (seed, section, run index) — never from scheduling. *)
type benign_run = {
  br_ok : bool;  (** finished within budget; trapped runs observe nothing *)
  br_outputs : (int * Value.t array) array;
  (** exit contents per spec output buffer, in spec order (empty unless
      [br_ok]) *)
  br_in_sums : (int * float) array;  (** perturbed entry sum per input buffer *)
  br_work : int;
}

let run_benign rng golden ~max_perturbation ~section_index
    ~(spec : Sensitivity.t) =
  let inputs = spec.Sensitivity.input_buffers in
  let in_sums = ref [||] in
  let ws, run =
    Replay.exec_section golden golden.Golden.sections.(section_index)
      ~timeout_factor:Sensitivity.timeout_factor ~edit:(fun u ->
        if Array.length inputs > 0 then
          Sensitivity.perturb rng ~max_perturbation u
            inputs.(Rng.int rng (Array.length inputs));
        in_sums := Array.map (fun i -> (i, Detector.sum (Ustate.values u i))) inputs)
  in
  let ok = run.Machine.status = Machine.Finished in
  let state = ws.Workspace.state in
  {
    br_ok = ok;
    br_outputs =
      (if ok then
         Array.map (fun o -> (o, Ustate.values state o)) spec.Sensitivity.output_buffers
       else [||]);
    br_in_sums = !in_sums;
    br_work = run.Machine.executed;
  }

let find_buffer pairs buffer ~default =
  match Array.find_opt (fun (b, _) -> b = buffer) pairs with
  | Some (_, x) -> x
  | None -> default

let in_sum_of br buffer = find_buffer br.br_in_sums buffer ~default:0.0

(* Least-squares fit y = scale·x + offset; None when x carries no
   variance (a constant input sum cannot predict anything) or any
   moment is non-finite. *)
let fit_line points =
  let n = float_of_int (List.length points) in
  if n < 2.0 then None
  else begin
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
    let denom = (n *. sxx) -. (sx *. sx) in
    if (not (Float.is_finite denom)) || Float.abs denom <= 1e-12 *. (1.0 +. Float.abs sxx)
    then None
    else begin
      let scale = ((n *. sxy) -. (sx *. sy)) /. denom in
      let offset = (sy -. (scale *. sx)) /. n in
      if Float.is_finite scale && Float.is_finite offset then Some (scale, offset)
      else None
    end
  end

let section_in_focus focus (section : Golden.section_run) =
  match focus with
  | None -> true
  | Some pcs ->
    List.exists (fun pc -> pc.Site.kernel = section.Golden.kernel_index) pcs

(* Per-(section, output) training summary, merged over runs in task
   order. *)
type train_obs = {
  mutable o_min : float;
  mutable o_max : float;
  mutable o_points : (float * float) list;  (** (in_sum, out_sum), newest first *)
}

let run ?(pool = Pool.serial) ?(train = 40) ?(validate = 40) ?(max_perturbation = 0.01)
    ?(safety_factor = 1.25) ?focus ~seed golden ~specs =
  Telemetry.span "detect.synthesize" @@ fun () ->
  let nsections = Array.length golden.Golden.sections in
  if Array.length specs <> nsections then
    invalid_arg "Synthesize.run: one sensitivity spec per schedule section";
  let active =
    Array.of_seq
      (Seq.filter
         (fun si ->
           Array.length specs.(si).Sensitivity.output_buffers > 0
           && section_in_focus focus golden.Golden.sections.(si))
         (Seq.init nsections Fun.id))
  in
  let train_base = Hashing.combine seed 1L in
  let validate_base = Hashing.combine seed 2L in
  let rng_for base si r =
    Rng.create (Hashing.combine base (Int64.of_int ((si * 1_000_003) + r)))
  in
  let work = ref 0 in
  (* --- phase 1: training runs, pooled over (section, run) ------------- *)
  let train_tasks =
    Array.init (Array.length active * train) (fun t ->
        (active.(t / train), t mod train))
  in
  let train_results =
    Pool.map_array pool
      (fun (si, r) ->
        run_benign (rng_for train_base si r) golden ~max_perturbation ~section_index:si
          ~spec:specs.(si))
      train_tasks
  in
  (* Merge per (section, output buffer); list order is task order, so the
     fit sees the same points whatever the pool width. *)
  let obs : (int * int, train_obs) Hashtbl.t = Hashtbl.create 64 in
  let obs_of si o =
    match Hashtbl.find_opt obs (si, o) with
    | Some x -> x
    | None ->
      let x = { o_min = infinity; o_max = neg_infinity; o_points = [] } in
      Hashtbl.add obs (si, o) x;
      x
  in
  Array.iteri
    (fun t br ->
      let si, _ = train_tasks.(t) in
      work := !work + br.br_work;
      if br.br_ok then begin
        let spec = specs.(si) in
        let single_input =
          match spec.Sensitivity.input_buffers with [| i |] -> Some i | _ -> None
        in
        Array.iter
          (fun (o, buf) ->
            let x = obs_of si o in
            for e = 0 to Array.length buf - 1 do
              let v =
                match buf.(e) with
                | Value.Float f -> f
                | Value.Int i -> Int64.to_float i
              in
              if v < x.o_min then x.o_min <- v;
              if v > x.o_max then x.o_max <- v
            done;
            match single_input with
            | Some i -> x.o_points <- (in_sum_of br i, Detector.sum buf) :: x.o_points
            | None -> ())
          br.br_outputs
      end)
    train_results;
  (* --- phase 2: candidate construction (coordinating domain) ---------- *)
  let candidates = Array.make nsections [||] in
  Array.iter
    (fun si ->
      let spec = specs.(si) in
      let golden_exit = Golden.exit_state golden si in
      let single_input =
        match spec.Sensitivity.input_buffers with [| i |] -> Some i | _ -> None
      in
      let section_cands = ref [] in
      Array.iteri
        (fun o_idx o ->
          let g = golden_exit.(o) in
          let len = Array.length g in
          if len > 0 then begin
            let gmin = ref infinity and gmax = ref neg_infinity and gabs = ref 0.0 in
            let all_finite = ref true in
            Array.iter
              (fun v ->
                if not (Value.is_finite v) then all_finite := false;
                let x = match v with Value.Float f -> f | Value.Int i -> Int64.to_float i in
                if x < !gmin then gmin := x;
                if x > !gmax then gmax := x;
                if Float.abs x > !gabs then gabs := Float.abs x)
              g;
            let add form ~input_len =
              section_cands :=
                {
                  Detector.d_section = si;
                  d_buffer = o;
                  d_form = form;
                  d_cost = Detector.cost_of_form form ~len ~input_len;
                }
                :: !section_cands
            in
            if !all_finite then begin
              add Detector.Finite ~input_len:0;
              let kmax =
                Array.fold_left Float.max 0.0 spec.Sensitivity.k.(o_idx)
              in
              let margin = kmax *. max_perturbation *. safety_factor in
              let tiny = 1e-9 *. (1.0 +. !gabs) in
              let x = obs_of si o in
              if Float.is_finite margin then begin
                let lo = Float.min !gmin (Float.min x.o_min !gmin) -. margin -. tiny in
                let hi = Float.max !gmax (Float.max x.o_max !gmax) +. margin +. tiny in
                add (Detector.Range { lo; hi }) ~input_len:0
              end;
              match single_input with
              | None -> ()
              | Some input ->
                let entry = golden.Golden.sections.(si).Golden.entry_state in
                let g_point = (Detector.sum entry.(input), Detector.sum g) in
                let points = g_point :: List.rev x.o_points in
                (match fit_line points with
                | None -> ()
                | Some (scale, offset) ->
                  let resid =
                    List.fold_left
                      (fun acc (px, py) ->
                        Float.max acc (Float.abs (py -. ((scale *. px) +. offset))))
                      0.0 points
                  in
                  let g_out = snd g_point in
                  if Float.is_finite resid then begin
                    let tol =
                      (resid *. safety_factor) +. (1e-9 *. (1.0 +. Float.abs g_out))
                    in
                    add
                      (Detector.Linear { input; scale; offset; tol })
                      ~input_len:(Array.length entry.(input))
                  end)
            end
          end)
        spec.Sensitivity.output_buffers;
      candidates.(si) <- Array.of_list (List.rev !section_cands))
    active;
  (* --- phase 3: validation, dropping any candidate that fires --------- *)
  let validate_tasks =
    Array.init (Array.length active * validate) (fun t ->
        (active.(t / validate), t mod validate))
  in
  let masks =
    Pool.map_array pool
      (fun (si, r) ->
        let br =
          run_benign (rng_for validate_base si r) golden ~max_perturbation
            ~section_index:si ~spec:specs.(si)
        in
        let mask = ref 0 in
        if br.br_ok then
          Array.iteri
            (fun j (d : Detector.t) ->
              let entry_sum =
                match d.Detector.d_form with
                | Detector.Linear { input; _ } -> in_sum_of br input
                | Detector.Finite | Detector.Range _ -> 0.0
              in
              let exit_values = find_buffer br.br_outputs d.Detector.d_buffer ~default:[||] in
              if Detector.fires d ~entry_sum exit_values then
                mask := !mask lor (1 lsl j))
            candidates.(si);
        (!mask, br.br_work))
      validate_tasks
  in
  let fired = Array.make nsections 0 in
  Array.iteri
    (fun t (mask, w) ->
      let si, _ = validate_tasks.(t) in
      work := !work + w;
      fired.(si) <- fired.(si) lor mask)
    masks;
  let dropped = ref 0 in
  Array.iter
    (fun si ->
      let keep = ref [] in
      Array.iteri
        (fun j d ->
          if fired.(si) land (1 lsl j) = 0 then keep := d :: !keep else incr dropped)
        candidates.(si);
      candidates.(si) <- Array.of_list (List.rev !keep))
    active;
  let n_candidates = Array.fold_left (fun acc a -> acc + Array.length a) 0 candidates in
  Telemetry.add m_sections (Array.length active);
  Telemetry.add m_candidates n_candidates;
  Telemetry.add m_dropped !dropped;
  Telemetry.add m_runs (Array.length train_tasks + Array.length validate_tasks);
  Telemetry.add m_work !work;
  {
    candidates;
    spec_hash = Detector.spec_hash candidates;
    train_runs = train;
    validation_runs = validate;
    (* the surviving set fired zero times on the validation runs — that
       is what "surviving" means, and it is a measured count, not an
       assumption *)
    fp_fires = 0;
    dropped = !dropped;
    work = !work;
  }

let focus_of_json text =
  let module Json = Ff_support.Json in
  let pc finding =
    match (Json.member "kernel" finding, Json.member "instr" finding) with
    | Some (Json.Int kernel), Some (Json.Int instr) -> { Site.kernel; instr }
    | _ -> failwith "a finding without integer \"kernel\" and \"instr\""
  in
  let findings doc =
    match (Json.member "schema" doc, Json.member "findings" doc) with
    | Some (Json.Str "fastflip.security/1"), Some (Json.Arr findings) -> (
      try Ok (List.map pc findings) with Failure e -> Error e)
    | Some (Json.Str "fastflip.security/1"), _ -> Error "no \"findings\" array"
    | Some (Json.Str schema), _ ->
      Error (Printf.sprintf "schema %S is not fastflip.security/1" schema)
    | _ -> Error "no \"schema\" string"
  in
  Result.bind (Json.parse text) findings
