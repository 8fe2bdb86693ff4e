open Ff_inject
module Golden = Ff_vm.Golden
module Instr = Ff_ir.Instr
module Kernel = Ff_ir.Kernel
module Program = Ff_ir.Program
module Pool = Ff_support.Pool
module Json = Ff_support.Json
module Table = Ff_support.Table

(* Security campaign mode: the same end-to-end injection machinery as the
   Approxilyzer baseline, re-read under an attacker threat model. A fault
   the SDC analysis calls "bad" is an accuracy loss; under an attack
   model (instruction skip, targeted flips) the same outcome is a
   *silent* integrity violation — the program completed, nothing trapped,
   and the output differs from the golden one. Detected outcomes are
   failed attacks (the fault was loud), masked outcomes are absorbed
   ones; only silent corruption is damage.

   The valuation/knapsack machinery is reused verbatim: v(pc) counts the
   sites at pc whose injection silently corrupts the output beyond
   epsilon, c(pc) is the pc's dynamic instance count, and the knapsack
   answers "what to protect first" under the threat model exactly as it
   does under the reliability model. *)

type kind =
  | Check_bypass      (** corrupting a comparison, branch or select:
                          the classic skip-a-guard attack *)
  | State_corruption  (** memory traffic or entry-state flips: leaked or
                          overwritten state *)
  | Compute_corruption

let kind_to_string = function
  | Check_bypass -> "check-bypass"
  | State_corruption -> "state"
  | Compute_corruption -> "compute"

type finding = {
  f_pc : Site.pc;
  f_kind : kind;
  f_instr : string;    (** printed instruction, or the buffer for [Mem] *)
  f_bad_sites : int;   (** sites whose fault silently corrupts the output *)
  f_total_sites : int; (** all sites the model aims at this pc *)
}

type t = {
  s_model : Fault_model.t;
  s_epsilon : float;
  s_sites : int;
  s_classes : int;
  s_silent : int;    (** damage: silently corrupted beyond epsilon *)
  s_detected : int;  (** failed attacks: trap/timeout/misformatted *)
  s_masked : int;    (** absorbed: output unchanged (or within epsilon) *)
  s_findings : finding list;  (** descending damage, then pc order *)
  s_baseline : Baseline.t;
}

let kernel_code golden =
  Array.of_list
    (List.map (fun k -> k.Kernel.code) golden.Golden.program.Program.kernels)

let instr_at code (pc : Site.pc) =
  let arr = code.(pc.Site.kernel) in
  if pc.Site.instr >= 0 && pc.Site.instr < Array.length arr then
    Some arr.(pc.Site.instr)
  else None

let kind_of code (cls : Eqclass.t) =
  match Eqclass.operand cls with
  | Site.Mem _ -> State_corruption
  | Site.Src _ | Site.Dst | Site.Op -> (
    match instr_at code (Eqclass.pc cls) with
    | Some (Instr.Icmp _ | Instr.Fcmp _ | Instr.Br _ | Instr.Select _) ->
      Check_bypass
    | Some (Instr.Load _ | Instr.Store _) -> State_corruption
    | Some _ | None -> Compute_corruption)

let instr_label golden code (cls : Eqclass.t) =
  match Eqclass.operand cls with
  | Site.Mem b -> (
    let buffers = golden.Golden.program.Program.buffers in
    match List.nth_opt buffers b with
    | Some buf -> Printf.sprintf "buffer %s" buf.Program.buf_name
    | None -> Printf.sprintf "buffer #%d" b)
  | Site.Src _ | Site.Dst | Site.Op -> (
    match instr_at code (Eqclass.pc cls) with
    | Some i -> Instr.to_string i
    | None -> "<out of range>")

let analyze ?pool ~epsilon golden (config : Campaign.config) =
  let b = Baseline.analyze ?pool config ~epsilon golden in
  let baseline = b.Baseline.result and valuation = b.Baseline.valuation in
  let code = kernel_code golden in
  let silent = ref 0 and detected = ref 0 and masked = ref 0 in
  Array.iter
    (fun (cls, outcome) ->
      let w = Eqclass.size cls in
      match (outcome : Outcome.final_outcome) with
      | Outcome.F_detected _ -> detected := !detected + w
      | Outcome.F_sdc _ ->
        if Outcome.final_is_bad ~epsilon outcome then silent := !silent + w
        else masked := !masked + w)
    baseline.Campaign.b_classes;
  (* Group the class labels per pc (the valuation already decided which
     are damage); keep the first class of a pc as its describer. *)
  let by_pc : (Site.pc, finding ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun { Valuation.cls; bad } ->
      let w = Eqclass.size cls in
      let f =
        match Hashtbl.find_opt by_pc (Eqclass.pc cls) with
        | Some f -> f
        | None ->
          let f =
            ref
              {
                f_pc = Eqclass.pc cls;
                f_kind = kind_of code cls;
                f_instr = instr_label golden code cls;
                f_bad_sites = 0;
                f_total_sites = 0;
              }
          in
          Hashtbl.add by_pc (Eqclass.pc cls) f;
          order := f :: !order;
          f
      in
      f :=
        {
          !f with
          f_bad_sites = (!f).f_bad_sites + (if bad then w else 0);
          f_total_sites = (!f).f_total_sites + w;
        })
    valuation.Valuation.labels;
  let findings =
    List.rev_map (fun f -> !f) !order
    |> List.filter (fun f -> f.f_bad_sites > 0)
    |> List.sort (fun a b ->
           match compare b.f_bad_sites a.f_bad_sites with
           | 0 -> Site.compare_pc a.f_pc b.f_pc
           | c -> c)
  in
  {
    s_model = config.Campaign.model;
    s_epsilon = epsilon;
    s_sites = baseline.Campaign.b_sites;
    s_classes = Array.length baseline.Campaign.b_classes;
    s_silent = !silent;
    s_detected = !detected;
    s_masked = !masked;
    s_findings = findings;
    s_baseline = b;
  }

let protect_first t ~target = Baseline.select t.s_baseline ~target

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

(* The finding list is the seed input for detector placement
   ([fastflip protect --seed-security]), so the field set mirrors
   [finding] verbatim. *)
let findings_json t =
  let open Json in
  let finding f =
    Obj
      [
        ("kernel", Int f.f_pc.Site.kernel);
        ("instr", Int f.f_pc.Site.instr);
        ("kind", Str (kind_to_string f.f_kind));
        ("silent_sites", Int f.f_bad_sites);
        ("total_sites", Int f.f_total_sites);
        ("instruction", Str f.f_instr);
      ]
  in
  to_string
    (Obj
       [
         ("schema", Str "fastflip.security/1");
         ("model", Str (Fault_model.to_string t.s_model));
         ("epsilon", shortest t.s_epsilon);
         ("sites", Int t.s_sites);
         ("classes", Int t.s_classes);
         ("silent", Int t.s_silent);
         ("detected", Int t.s_detected);
         ("masked", Int t.s_masked);
         ("findings", Arr (List.map finding t.s_findings));
       ])

let report ?(target = 0.9) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "security campaign: model=%s epsilon=%g — %d sites in %d classes\n"
       (Fault_model.to_string t.s_model)
       t.s_epsilon t.s_sites t.s_classes);
  Buffer.add_string buf
    (Printf.sprintf
       "attack outcomes: %d silent corruptions (%.0f%%), %d detected \
        (%.0f%%), %d masked (%.0f%%)\n"
       t.s_silent (pct t.s_silent t.s_sites) t.s_detected
       (pct t.s_detected t.s_sites) t.s_masked (pct t.s_masked t.s_sites));
  if t.s_findings <> [] then begin
    let tbl =
      Table.create ~title:"vulnerable instructions (damage-first)"
        [
          ("Pc", Table.Left); ("Kind", Table.Left); ("Silent", Table.Right);
          ("Sites", Table.Right); ("Instruction", Table.Left);
        ]
    in
    List.iter
      (fun f ->
        Table.add_row tbl
          [
            Format.asprintf "%a" Site.pp_pc f.f_pc;
            kind_to_string f.f_kind;
            string_of_int f.f_bad_sites;
            string_of_int f.f_total_sites;
            f.f_instr;
          ])
      t.s_findings;
    Buffer.add_string buf (Table.render tbl);
    Buffer.add_char buf '\n'
  end;
  let sel = protect_first t ~target in
  let valuation = t.s_baseline.Baseline.valuation in
  (match sel.Knapsack.pcs with
  | [] ->
    Buffer.add_string buf
      "protect first: nothing to protect under this threat model\n"
  | pcs ->
    Buffer.add_string buf
      (Printf.sprintf
         "protect first (target %.2f): %s — %.0f%% of the damage at %.1f%% \
          of the trace\n"
         target
         (String.concat ", "
            (List.map (fun pc -> Format.asprintf "%a" Site.pp_pc pc) pcs))
         (pct sel.Knapsack.value valuation.Valuation.total_value)
         (100.0 *. Valuation.cost_fraction valuation ~selected:sel.Knapsack.pcs)));
  Buffer.contents buf
