open Ff_ir
module Golden = Ff_vm.Golden
module Rng = Ff_support.Rng

let float_lit x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else begin
    let s = Printf.sprintf "%.17g" x in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then s
    else s ^ ".0"
  end

let float_values xs = String.concat ", " (List.map float_lit xs)

let int_values xs = String.concat ", " (List.map Int64.to_string xs)

let random_floats ~seed ~lo ~hi n =
  let rng = Rng.create seed in
  List.init n (fun _ -> lo +. Rng.float rng (hi -. lo))

let golden_of_source src =
  let program = Ff_lang.Frontend.compile_exn src in
  Golden.run program

let buffer_index (golden : Golden.t) name =
  let rec go i = function
    | [] -> failwith (Printf.sprintf "Gen.buffer_index: no buffer %s" name)
    | (b : Program.buffer) :: rest ->
      if String.equal b.Program.buf_name name then i else go (i + 1) rest
  in
  go 0 golden.Golden.program.Program.buffers

let as_floats arr =
  Array.to_list arr
  |> List.map (function
       | Value.Float x -> x
       | Value.Int _ -> failwith "Gen: expected a float buffer")

let as_ints arr =
  Array.to_list arr
  |> List.map (function
       | Value.Int x -> x
       | Value.Float _ -> failwith "Gen: expected an int buffer")

let final_floats golden name = as_floats golden.Golden.final_state.(buffer_index golden name)

let find_section (golden : Golden.t) ~label_prefix =
  let matches (s : Golden.section_run) =
    let label = s.Golden.call.Program.call_label in
    String.length label >= String.length label_prefix
    && String.equal (String.sub label 0 (String.length label_prefix)) label_prefix
  in
  match Array.to_list golden.Golden.sections |> List.find_opt matches with
  | Some s -> s
  | None -> failwith (Printf.sprintf "Gen: no section labelled %s..." label_prefix)

let entry_state golden ~label_prefix ~buffer =
  let section = find_section golden ~label_prefix in
  section.Golden.entry_state.(buffer_index golden buffer)

let exit_state golden ~label_prefix ~buffer =
  let section = find_section golden ~label_prefix in
  (Golden.exit_state golden section.Golden.section_index).(buffer_index golden buffer)

let entry_floats golden ~label_prefix ~buffer = as_floats (entry_state golden ~label_prefix ~buffer)

let exit_floats golden ~label_prefix ~buffer = as_floats (exit_state golden ~label_prefix ~buffer)

let entry_ints golden ~label_prefix ~buffer = as_ints (entry_state golden ~label_prefix ~buffer)

let exit_ints golden ~label_prefix ~buffer = as_ints (exit_state golden ~label_prefix ~buffer)

(* A mutex-guarded memo: OCaml 5 raises [CamlinternalLazy.Undefined] when
   a second domain forces a [lazy] that another is still forcing, and
   benchmark sources are built from inside pooled tasks. *)
let once f =
  let mu = Mutex.create () and memo = ref None in
  fun () ->
    Mutex.protect mu (fun () ->
        match !memo with
        | Some v -> v
        | None ->
          let v = f () in
          memo := Some v;
          v)
