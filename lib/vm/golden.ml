open Ff_ir
module Hashing = Ff_support.Hashing
module A1 = Bigarray.Array1

type section_run = {
  section_index : int;
  call : Program.call;
  kernel : Kernel.t;
  kernel_index : int;
  decoded : Decode.t;
  scal_words : Ustate.words;
  scal_tags : Bytes.t;
  bindings : (int * Kernel.role) array;
  writable_idx : int array;
  scan_idx : int array;
  bound_idx : int array;
  entry : Ustate.t;
  trace : int array;
  dyn_count : int;
  input_hash : int64;
}

type t = {
  program : Program.t;
  sections : section_run array;
  final : Ustate.t;
  total_dyn : int;
}

(* The byte stream of [Value.hash_fold] over each element: the tag as
   [add_int] 1 (int) or 2 (float), then the 64 bits. *)
let hash_words h (words : Ustate.words) tags =
  let bits = Ustate.as_bits words in
  for j = 0 to Ustate.dim words - 1 do
    Hashing.add_int h (if Bytes.get tags j = Ustate.tag_int then 1 else 2);
    Hashing.add_int64 h (A1.get bits j)
  done

let compute_input_hash scal_words scal_tags bindings (state : Ustate.t) =
  let h = Hashing.create () in
  hash_words h scal_words scal_tags;
  Array.iter
    (fun (buf_idx, role) ->
      if Kernel.role_readable role then begin
        Hashing.add_int h buf_idx;
        hash_words h state.Ustate.words.(buf_idx) state.Ustate.tags.(buf_idx)
      end)
    bindings;
  Hashing.value h

let sorted_uniq l = Array.of_list (List.sort_uniq compare l)

let copy (u : Ustate.t) =
  let c = Ustate.create_like u in
  Ustate.blit ~src:u ~dst:c;
  c

let run ?(budget_per_section = 50_000_000) (program : Program.t) =
  (match Program.validate program with
  | Ok () -> ()
  | Error { Program.context; message } ->
    failwith (Printf.sprintf "Golden.run: invalid program (%s: %s)" context message));
  (* The run is unboxed, over one live program state whose per-slot
     views alias, as a {!Workspace}'s do: slots bound to one buffer share
     it. Each boundary state is a copy of it. *)
  let live =
    Ustate.of_state
      (Array.of_list (List.map (fun b -> b.Program.buf_init) program.Program.buffers))
  in
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
        let scal_words, scal_tags =
          Ustate.scalars_of_values (Program.scalar_args program call)
        in
        let bindings = Array.of_list (Program.buffer_args program call) in
        let bound = Array.to_list bindings in
        let writable_idx =
          sorted_uniq
            (List.filter_map
               (fun (idx, role) -> if Kernel.role_writable role then Some idx else None)
               bound)
        in
        let entry = copy live in
        let input_hash = compute_input_hash scal_words scal_tags bindings entry in
        let trace = Trace.create () in
        let { Machine.status; executed } =
          Unboxed.exec decoded ~regs ~rtags ~scal_words ~scal_tags
            ~buffers:(Array.map (fun (idx, _) -> live.Ustate.words.(idx)) bindings)
            ~btags:(Array.map (fun (idx, _) -> live.Ustate.tags.(idx)) bindings)
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
        total_dyn := !total_dyn + executed;
        {
          section_index = i;
          call;
          kernel;
          kernel_index;
          decoded;
          scal_words;
          scal_tags;
          bindings;
          writable_idx;
          scan_idx =
            sorted_uniq
              (List.filter_map
                 (fun (idx, _) -> if Array.mem idx writable_idx then None else Some idx)
                 bound);
          bound_idx = sorted_uniq (List.map fst bound);
          entry;
          trace = Trace.to_array trace;
          dyn_count = executed;
          input_hash;
        })
      program.Program.schedule
  in
  {
    program;
    sections = Array.of_list sections;
    final = copy live;
    total_dyn = !total_dyn;
  }

let state t k = if k = Array.length t.sections then t.final else t.sections.(k).entry

let outputs t =
  Program.output_buffers t.program
  |> List.map (fun (i, b) -> (i, b.Program.buf_name, Ustate.values t.final i))
