open Ff_vm
module Sensitivity = Ff_sensitivity.Sensitivity

type t = {
  final_bounds : (int * Affine.t) list;
  buffer_bounds : Affine.t array;
}

let run (golden : Golden.t) ~specs =
  let nsections = Array.length golden.Golden.sections in
  if Array.length specs <> nsections then
    invalid_arg "Propagate.run: one sensitivity spec per section required";
  let nbuffers = List.length golden.Golden.program.Ff_ir.Program.buffers in
  let bounds = Array.make nbuffers Affine.zero in
  for s = 0 to nsections - 1 do
    let spec = specs.(s) in
    (* Compute all new output bounds from the pre-section bounds before
       committing any of them (outputs update simultaneously). *)
    let updates =
      Array.map
        (fun out_buf ->
          let propagated =
            Array.fold_left
              (fun acc in_buf ->
                let k = Sensitivity.amplification spec ~output:out_buf ~input:in_buf in
                if k = 0.0 then acc else Affine.add acc (Affine.scale k bounds.(in_buf)))
              Affine.zero spec.Sensitivity.input_buffers
          in
          let introduced = Affine.var { Affine.section = s; buffer = out_buf } in
          (out_buf, Affine.add propagated introduced))
        spec.Sensitivity.output_buffers
    in
    Array.iter (fun (out_buf, bound) -> bounds.(out_buf) <- bound) updates
  done;
  let final_bounds =
    Ff_ir.Program.output_buffers golden.Golden.program
    |> List.map (fun (idx, _) -> (idx, bounds.(idx)))
  in
  { final_bounds; buffer_bounds = bounds }

let specialized t ~output ~section =
  match List.assoc_opt output t.final_bounds with
  | Some bound -> Affine.restrict_section bound section
  | None -> invalid_arg "Propagate.specialized: not a program output"

let bound_for_injection t ~output ~section ~magnitudes =
  let spec = specialized t ~output ~section in
  Affine.eval spec (fun v ->
      let rec find i =
        if i >= Array.length magnitudes then 0.0
        else begin
          let buf, m = magnitudes.(i) in
          if buf = v.Affine.buffer then m else find (i + 1)
        end
      in
      find 0)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (idx, bound) ->
      Format.fprintf fmt "Delta(out b%d) <= %a@," idx Affine.pp bound)
    t.final_bounds;
  Format.fprintf fmt "@]"
