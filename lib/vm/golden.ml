open Ff_ir
module Hashing = Ff_support.Hashing
module A1 = Bigarray.Array1

type section_run = {
  section_index : int;
  call : Program.call;
  kernel : Kernel.t;
  kernel_index : int;
  decoded : Decode.t;
  scalars : Value.t list;
  bindings : (int * Kernel.role) array;
  entry_state : Value.t array array;
  trace : int array;
  dyn_count : int;
  input_hash : int64;
}

type t = {
  program : Program.t;
  sections : section_run array;
  final_state : Value.t array array;
  total_dyn : int;
}

let copy_state state = Array.map Array.copy state

let compute_input_hash scalars bindings state =
  let h = Hashing.create () in
  List.iter (Value.hash_fold h) scalars;
  Array.iter
    (fun (buf_idx, role) ->
      if Kernel.role_readable role then begin
        Hashing.add_int h buf_idx;
        Array.iter (Value.hash_fold h) state.(buf_idx)
      end)
    bindings;
  Hashing.value h

(* Bring boxed buffer [buf] up to date with buffer [i] of the unboxed
   state, re-boxing only the elements whose bits or tag changed: an
   unchanged element keeps its box, so consecutive snapshots share it,
   as copies of one boxed state always did. *)
let sync (u : Ustate.t) i (buf : Value.t array) =
  let words = u.Ustate.words.(i) and tags = u.Ustate.tags.(i) in
  let bits = Ustate.as_bits words in
  for j = 0 to Array.length buf - 1 do
    let w = A1.unsafe_get bits j and t = Bytes.unsafe_get tags j in
    let same =
      match buf.(j) with
      | Value.Int v -> t = Ustate.tag_int && Int64.equal v w
      | Value.Float x -> t = Ustate.tag_float && Int64.equal (Int64.bits_of_float x) w
    in
    if not same then buf.(j) <- Ustate.value_of (A1.unsafe_get words j) t
  done

let run ?(budget_per_section = 50_000_000) (program : Program.t) =
  (match Program.validate program with
  | Ok () -> ()
  | Error { Program.context; message } ->
    failwith (Printf.sprintf "Golden.run: invalid program (%s: %s)" context message));
  (* The run is unboxed, over one program state [ustate] whose per-slot
     views alias, as a {!Workspace}'s do: slots bound to one buffer share
     it. [state] is its boxed mirror, synced after each section, from
     which the snapshots and input hashes are taken. *)
  let state =
    Array.of_list (List.map (fun b -> Array.copy b.Program.buf_init) program.Program.buffers)
  in
  let ustate = Ustate.of_state state in
  let nregs =
    List.fold_left (fun n k -> max n k.Kernel.nregs) 1 program.Program.kernels
  in
  let regs = Ustate.make_words nregs and rtags = Bytes.make nregs Ustate.tag_int in
  let total_dyn = ref 0 in
  (* Decode each kernel exactly once, however many sections call it:
     replays inherit the decoded form through the section record. *)
  let decoded_cache = Hashtbl.create 8 in
  let decode_once kernel_index kernel =
    match Hashtbl.find_opt decoded_cache kernel_index with
    | Some d -> d
    | None ->
      let d = Decode.of_kernel kernel in
      Hashtbl.add decoded_cache kernel_index d;
      d
  in
  let sections =
    List.mapi
      (fun i call ->
        let kernel =
          match Program.find_kernel program call.Program.callee with
          | Some k -> k
          | None -> failwith "Golden.run: unknown kernel"
        in
        let kernel_index = Option.get (Program.kernel_index program call.Program.callee) in
        let decoded = decode_once kernel_index kernel in
        let scalars = Program.scalar_args program call in
        let bindings = Array.of_list (Program.buffer_args program call) in
        let entry_state = copy_state state in
        let input_hash = compute_input_hash scalars bindings state in
        let scal_words, scal_tags = Ustate.scalars_of_values scalars in
        let trace = Trace.create () in
        let { Machine.status; executed } =
          Unboxed.exec decoded ~regs ~rtags ~scal_words ~scal_tags
            ~buffers:(Array.map (fun (idx, _) -> ustate.Ustate.words.(idx)) bindings)
            ~btags:(Array.map (fun (idx, _) -> ustate.Ustate.tags.(idx)) bindings)
            ~budget:budget_per_section ~trace ()
        in
        (match status with
        | Machine.Finished -> ()
        | Machine.Trapped trap ->
          failwith
            (Format.asprintf "Golden.run: section %s trapped (%a)" call.Program.call_label
               Machine.pp_trap trap)
        | Machine.Out_of_budget ->
          failwith
            (Printf.sprintf "Golden.run: section %s exceeded the golden budget"
               call.Program.call_label));
        Array.iter (fun (idx, _) -> sync ustate idx state.(idx)) bindings;
        total_dyn := !total_dyn + executed;
        {
          section_index = i;
          call;
          kernel;
          kernel_index;
          decoded;
          scalars;
          bindings;
          entry_state;
          trace = Trace.to_array trace;
          dyn_count = executed;
          input_hash;
        })
      program.Program.schedule
  in
  {
    program;
    sections = Array.of_list sections;
    final_state = copy_state state;
    total_dyn = !total_dyn;
  }

let exit_state t i =
  if i < 0 || i >= Array.length t.sections then invalid_arg "Golden.exit_state";
  if i = Array.length t.sections - 1 then t.final_state
  else t.sections.(i + 1).entry_state

let outputs t =
  Program.output_buffers t.program
  |> List.map (fun (i, b) -> (i, b.Program.buf_name, t.final_state.(i)))
