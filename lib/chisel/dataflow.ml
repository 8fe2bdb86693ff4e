open Ff_ir
open Ff_vm

type section_io = {
  section_index : int;
  label : string;
  reads : int list;
  writes : int list;
}

type t = {
  sections : section_io array;
  program_outputs : int list;
}

let of_golden (golden : Golden.t) =
  let sections =
    Array.map
      (fun (s : Golden.section_run) ->
        let reads =
          Array.to_list s.Golden.bindings
          |> List.filter_map (fun (idx, role) ->
                 if Kernel.role_readable role then Some idx else None)
          |> List.sort_uniq compare
        in
        let writes =
          Array.to_list s.Golden.bindings
          |> List.filter_map (fun (idx, role) ->
                 if Kernel.role_writable role then Some idx else None)
          |> List.sort_uniq compare
        in
        {
          section_index = s.Golden.section_index;
          label = s.Golden.call.Program.call_label;
          reads;
          writes;
        })
      golden.Golden.sections
  in
  let program_outputs =
    Program.output_buffers golden.Golden.program |> List.map fst
  in
  { sections; program_outputs }

let downstream t s =
  let n = Array.length t.sections in
  if s < 0 || s >= n then invalid_arg "Dataflow.downstream";
  (* Forward taint: buffers tainted by section s's writes; a section that
     reads a tainted buffer is affected and taints its own writes. *)
  let tainted_buffers = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tainted_buffers b ()) t.sections.(s).writes;
  let affected = ref [] in
  for i = s + 1 to n - 1 do
    let io = t.sections.(i) in
    if List.exists (fun b -> Hashtbl.mem tainted_buffers b) io.reads then begin
      affected := i :: !affected;
      List.iter (fun b -> Hashtbl.replace tainted_buffers b ()) io.writes
    end
  done;
  List.rev !affected

let writers_of t buffer =
  Array.to_list t.sections
  |> List.filter_map (fun io ->
         if List.mem buffer io.writes then Some io.section_index else None)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun io ->
      Format.fprintf fmt "s%d %s: reads {%s} writes {%s}@," io.section_index io.label
        (String.concat "," (List.map string_of_int io.reads))
        (String.concat "," (List.map string_of_int io.writes)))
    t.sections;
  Format.fprintf fmt "outputs: {%s}@]"
    (String.concat "," (List.map string_of_int t.program_outputs))
