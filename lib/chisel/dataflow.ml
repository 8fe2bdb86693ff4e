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
