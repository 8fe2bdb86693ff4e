open Ff_ir
open Ff_vm
module A1 = Bigarray.Array1
module Rng = Ff_support.Rng
module Hashing = Ff_support.Hashing
module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry

let m_estimates = Telemetry.counter "sensitivity.estimates"
let m_samples = Telemetry.counter "sensitivity.samples"
let m_samples_used = Telemetry.counter "sensitivity.samples_used"
let m_work = Telemetry.counter "sensitivity.work"
let h_section_work = Telemetry.histogram "sensitivity.section_work"

type t = {
  section_index : int;
  input_buffers : int array;
  output_buffers : int array;
  k : float array array;
  samples_used : int;
  work : int;
}

let readable_buffers (section : Golden.section_run) =
  Array.to_list section.Golden.bindings
  |> List.filter_map (fun (idx, role) ->
         if Kernel.role_readable role then Some idx else None)
  |> List.sort_uniq compare

let timeout_factor = 5.0

(* Single element, a random subset, or all elements (§5.6). Floats move
   by a signed δ with |δ| ≤ max_perturbation, never exactly 0; ints by a
   nonzero δ within ±max(1, round max_perturbation). *)
let perturb rng ~max_perturbation (u : Ustate.t) buf =
  let words = u.Ustate.words.(buf) and tags = u.Ustate.tags.(buf) in
  let bits = Ustate.as_bits words in
  let range = Int64.to_int (Int64.of_float (Float.max 1.0 (Float.round max_perturbation))) in
  let nudge e =
    if Bytes.get tags e = Ustate.tag_float then begin
      let delta = Rng.float_signed rng max_perturbation in
      let delta = if delta = 0.0 then max_perturbation else delta in
      A1.set words e (A1.get words e +. delta)
    end
    else begin
      let delta = Rng.int rng ((2 * range) + 1) - range in
      let delta = if delta = 0 then 1 else delta in
      A1.set bits e (Int64.add (A1.get bits e) (Int64.of_int delta))
    end
  in
  let n = Ustate.dim words in
  if n > 0 then
    match Rng.int rng 3 with
    | 0 -> nudge (Rng.int rng n)
    | 1 ->
      let count = 1 + Rng.int rng (max 1 (n / 2)) in
      for _ = 1 to count do
        nudge (Rng.int rng n)
      done
    | _ ->
      for e = 0 to n - 1 do
        nudge e
      done

(* The sample loop is split into fixed-size chunks, each drawing from its
   own generator derived from (base seed, input index, chunk index). The
   derivation does not depend on how chunks are scheduled, so the estimate
   is identical for every pool width — including the serial path, which
   uses the exact same chunking. *)
let sample_chunk = 25

let estimate ?(samples = 200) ?(max_perturbation = 0.01) ?(safety_factor = 1.25)
    ?(pool = Pool.serial) ~rng golden ~section_index =
  Telemetry.span "sensitivity.estimate"
    ~attrs:[ ("section", string_of_int section_index) ]
  @@ fun () ->
  let section = golden.Golden.sections.(section_index) in
  let plan = Workspace.plan_of golden in
  let entry = plan.Workspace.states.(section_index)
  and exit = plan.Workspace.states.(section_index + 1) in
  let inputs = Array.of_list (readable_buffers section) in
  let outputs = plan.Workspace.writable_idx.(section_index) in
  let k = Array.make_matrix (Array.length outputs) (Array.length inputs) 0.0 in
  (* Advances the caller's generator exactly once, whatever the chunking. *)
  let base = Rng.int64 rng in
  let chunks_per_input = (samples + sample_chunk - 1) / sample_chunk in
  let tasks =
    Array.init
      (Array.length inputs * chunks_per_input)
      (fun t -> (t / chunks_per_input, t mod chunks_per_input))
  in
  let run_task (i_idx, chunk_index) =
    let input_buf = inputs.(i_idx) in
    let rng =
      Rng.create
        (Hashing.combine base
           (Int64.of_int ((i_idx * chunks_per_input) + chunk_index)))
    in
    let count = min sample_chunk (samples - (chunk_index * sample_chunk)) in
    let col = Array.make (Array.length outputs) 0.0 in
    let work = ref 0 in
    for _ = 1 to count do
      let delta = ref 0.0 in
      let ws, run =
        Replay.exec_section golden section ~timeout_factor ~edit:(fun u ->
            perturb rng ~max_perturbation u input_buf;
            (* |Δi| is the realized perturbation (an element hit twice
               accumulates), not the largest single nudge. *)
            delta := Ustate.buffer_distance entry input_buf u input_buf)
      in
      work := !work + run.Machine.executed;
      match run.Machine.status with
      | Machine.Finished ->
        Array.iteri
          (fun o_idx output_buf ->
            (* For an inout buffer perturbed directly, measure against the
               perturbed-input baseline only through the golden exit: the
               ratio |s(x+δ) - s(x)| / |δ| of Equation 1. *)
            let d_out =
              Ustate.buffer_distance exit output_buf ws.Workspace.state output_buf
            in
            let ratio = d_out /. !delta in
            if Float.is_nan ratio then ()
            else if ratio > col.(o_idx) then col.(o_idx) <- ratio)
          outputs
      | Machine.Trapped _ | Machine.Out_of_budget ->
        (* A tiny input perturbation changed the section's fate: no
           finite amplification bound holds. *)
        Array.iteri (fun o_idx _ -> col.(o_idx) <- infinity) outputs
    done;
    (col, !work)
  in
  let parts = Pool.map_array pool run_task tasks in
  let work = ref 0 in
  (* Merging by max is order-independent; summing work in task order keeps
     the counter identical to the serial run. *)
  Array.iteri
    (fun t (col, w) ->
      let i_idx, _ = tasks.(t) in
      work := !work + w;
      Array.iteri
        (fun o_idx v -> if v > k.(o_idx).(i_idx) then k.(o_idx).(i_idx) <- v)
        col)
    parts;
  Array.iter
    (fun row ->
      Array.iteri (fun i v -> if Float.is_finite v then row.(i) <- v *. safety_factor) row)
    k;
  Telemetry.incr m_estimates;
  Telemetry.add m_samples (samples * Array.length inputs);
  (* [samples_used] is the per-estimate knob value (what the record
     stores), distinct from [samples] which multiplies by the input
     count — both visible in --metrics so --sens-samples is observable. *)
  Telemetry.add m_samples_used samples;
  Telemetry.add m_work !work;
  Telemetry.observe h_section_work !work;
  {
    section_index;
    input_buffers = inputs;
    output_buffers = outputs;
    k;
    samples_used = samples;
    work = !work;
  }

let index_of arr v =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if arr.(i) = v then Some i else go (i + 1) in
  go 0

let amplification t ~output ~input =
  match (index_of t.output_buffers output, index_of t.input_buffers input) with
  | Some o, Some i -> t.k.(o).(i)
  | None, _ | _, None -> 0.0

let spec_hash t =
  let h = Hashing.create () in
  Hashing.add_int h t.section_index;
  Array.iter (Hashing.add_int h) t.input_buffers;
  Array.iter (Hashing.add_int h) t.output_buffers;
  Array.iter (fun row -> Array.iter (Hashing.add_float h) row) t.k;
  Hashing.value h
