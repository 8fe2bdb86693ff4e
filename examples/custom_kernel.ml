(* Working at the substrate level: compile a kernel, inject individual
   bitflips by hand, and watch the outcome taxonomy (masked / SDC / crash /
   timeout) emerge — the ground floor the whole analysis is built on.

   Run with:  dune exec examples/custom_kernel.exe *)

module Golden = Ff_vm.Golden
module Machine = Ff_vm.Machine
module Replay = Ff_vm.Replay
module Outcome = Ff_inject.Outcome
module Site = Ff_inject.Site
module Eqclass = Ff_inject.Eqclass

let source =
  {|
buffer coeffs : float[4] = { 0.5, -0.25, 0.125, 1.5 };
output buffer horner : float[1] = zeros;

kernel eval(x: float, in coeffs: float[], out horner: float[]) {
  var acc: float = 0.0;
  for i in 0..4 {
    acc = acc * x + coeffs[3 - i];
  }
  horner[0] = acc;
}

schedule { call eval(2.0, coeffs, horner); }
|}

let () =
  let program = Ff_lang.Frontend.compile_exn source in
  let golden = Golden.run program in
  let section = golden.Golden.sections.(0) in
  Printf.printf "golden run: %d dynamic instructions, horner(2.0) = %s\n\n"
    section.Golden.dyn_count
    (Ff_ir.Value.to_string (Ff_vm.Ustate.values golden.Golden.final 1).(0));

  (* The compiled section, as the injector sees it. *)
  Format.printf "%a@." Ff_ir.Kernel.pp section.Golden.kernel;

  (* Inject a few hand-picked single-bit flips and classify the outcomes. *)
  let inject ~dyn ~operand ~bit =
    let injection = Replay.Fault { Machine.at_dyn = dyn; operand; bit } in
    let replay = Replay.run_section golden section injection ~timeout_factor:5.0 in
    Outcome.of_section_replay replay
  in
  Printf.printf "\nhand-picked injections (dynamic index, operand, bit):\n";
  List.iter
    (fun (dyn, operand, bit, label) ->
      let outcome = inject ~dyn ~operand ~bit in
      Printf.printf "  dyn=%2d %-6s bit=%2d  ->  %s   (%s)\n" dyn
        (match operand with
        | Machine.Osrc i -> Printf.sprintf "src%d" i
        | Machine.Odst -> "dst"
        | Machine.Oskip -> "skip"
        | Machine.Oenc -> "enc")
        bit
        (Format.asprintf "%a" Outcome.pp_section outcome)
        label)
    [
      (0, Machine.Odst, 0, "low mantissa bit of a constant");
      (0, Machine.Odst, 62, "high exponent bit: huge value");
      (2, Machine.Osrc 0, 63, "sign of a loop quantity");
      (5, Machine.Osrc 0, 1, "index register: possible out-of-bounds");
    ];

  (* Enumerate every error site of the section and tally the outcome mix —
     a one-section Approxilyzer campaign by hand. *)
  let bits = Site.Bit_list [ 0; 1; 15; 31; 47; 62; 63 ] in
  let masked = ref 0 and sdc = ref 0 and detected = ref 0 in
  let classes = Eqclass.for_section section bits in
  List.iter
    (fun cls ->
      let outcome =
        inject ~dyn:(Eqclass.pilot cls).Site.dyn
          ~operand:
            (match Eqclass.operand cls with
            | Site.Src i -> Machine.Osrc i
            | Site.Dst -> Machine.Odst
            | Site.Op | Site.Mem _ ->
              (* default single-bit model: register operands only *)
              assert false)
          ~bit:cls.Eqclass.bit
      in
      let weight = Eqclass.size cls in
      match outcome with
      | Outcome.S_detected _ -> detected := !detected + weight
      | Outcome.S_sdc _ when Outcome.section_is_masked outcome -> masked := !masked + weight
      | Outcome.S_sdc _ -> sdc := !sdc + weight)
    classes;
  let total = !masked + !sdc + !detected in
  Printf.printf
    "\nfull campaign over %d sites (%d equivalence classes):\n\
    \  masked   %4d (%.0f%%)\n\
    \  SDC      %4d (%.0f%%)\n\
    \  detected %4d (%.0f%%)\n"
    total (List.length classes) !masked
    (100.0 *. float_of_int !masked /. float_of_int total)
    !sdc
    (100.0 *. float_of_int !sdc /. float_of_int total)
    !detected
    (100.0 *. float_of_int !detected /. float_of_int total)
