open Ff_benchmarks
module Pipeline = Fastflip.Pipeline
module Baseline = Fastflip.Baseline
module Adjust = Fastflip.Adjust
module Valuation = Fastflip.Valuation

type step = {
  commit : int;
  edited_kernel : string;
  ff_work : int;
  base_work : int;
  refreshed : bool;
  achieved : float;
  sections_reused : int;
  sections_total : int;
}

(* Insert a statement right after `kernel <name>(...) {`. *)
let insert_into_kernel source ~kernel ~stmt =
  let needle = "kernel " ^ kernel in
  let len = String.length source in
  let rec find i =
    if i + String.length needle > len then
      failwith (Printf.sprintf "Evolution: kernel %s not found" kernel)
    else if String.equal (String.sub source i (String.length needle)) needle then i
    else find (i + 1)
  in
  let start = find 0 in
  let brace = String.index_from source start '{' in
  String.sub source 0 (brace + 1)
  ^ "\n" ^ stmt
  ^ String.sub source (brace + 1) (len - brace - 1)

let kernel_names source =
  (* every `kernel <name>(` occurrence, in order *)
  let names = ref [] in
  let len = String.length source in
  let rec go i =
    if i + 7 >= len then ()
    else if String.equal (String.sub source i 7) "kernel " then begin
      let stop = String.index_from source (i + 7) '(' in
      names := String.trim (String.sub source (i + 7) (stop - i - 7)) :: !names;
      go stop
    end
    else go (i + 1)
  in
  go 0;
  List.rev !names

(* A bit-identical edit: store an element back times 1.0. Multiplying a
   finite IEEE double by 1.0 is the identity, and the store keeps the
   instruction alive through dead-code elimination, so the kernel's code
   hash changes while every golden value stays bit-identical. *)
let identity_edit ~buffer ~index =
  Printf.sprintf "  %s[%d] = %s[%d] * 1.0;" buffer index buffer index

let writable_buffer_of_kernel program kernel_name =
  match Ff_ir.Program.find_kernel program kernel_name with
  | None -> None
  | Some k ->
    Ff_ir.Kernel.buffer_params k
    |> List.find_map (fun (name, ty, role) ->
           if Ff_ir.Kernel.role_writable role && ty = Ff_ir.Value.TFloat then Some name
           else None)

let run ?(config = Pipeline.default_config) ?(p_adj = 3) ?(commits = 8) bench =
  let base_source = bench.Defs.source Defs.V_none in
  let program0 = Ff_lang.Frontend.compile_exn base_source in
  let kernels =
    kernel_names base_source
    |> List.filter (fun k -> writable_buffer_of_kernel program0 k <> None)
  in
  if kernels = [] then failwith "Evolution: no editable kernels";
  let store = Fastflip.Store.create () in
  let target = 0.90 in
  (* Commit 0: fresh analysis with the simultaneous ground-truth run. *)
  let analyze source =
    let program = Ff_lang.Frontend.compile_exn source in
    Pipeline.analyze ~store config program
  in
  let ground_truth ff =
    Baseline.analyze config.Pipeline.campaign ~epsilon:config.Pipeline.epsilon
      ff.Pipeline.golden
  in
  let ff0 = analyze base_source in
  let base0 = ground_truth ff0 in
  let adjust =
    ref (Adjust.fresh ~p_adj ~ff:ff0 ~ground_truth:base0.Baseline.valuation ~target ())
  in
  let achieved_of ff base st =
    let selection = Pipeline.select ff ~target:st.Adjust.adjusted_target in
    Valuation.value_fraction base.Baseline.valuation
      ~selected:selection.Fastflip.Knapsack.pcs
  in
  let total_sections = Array.length ff0.Pipeline.sections in
  let steps =
    ref
      [
        {
          commit = 0;
          edited_kernel = "-";
          ff_work = ff0.Pipeline.work + base0.Baseline.work;
          base_work = base0.Baseline.work;
          refreshed = true;
          achieved = achieved_of ff0 base0 !adjust;
          sections_reused = 0;
          sections_total = total_sections;
        };
      ]
  in
  let source = ref base_source in
  let karr = Array.of_list kernels in
  for commit = 1 to commits do
    let kernel = karr.((commit - 1) mod Array.length karr) in
    let buffer = Option.get (writable_buffer_of_kernel program0 kernel) in
    source :=
      insert_into_kernel !source ~kernel
        ~stmt:(identity_edit ~buffer ~index:(commit mod 2));
    let ff = analyze !source in
    let base = ground_truth ff in
    adjust := Adjust.after_modification !adjust;
    let refreshed = Adjust.needs_refresh !adjust in
    if refreshed then
      adjust :=
        Adjust.fresh ~p_adj ~ff ~ground_truth:base.Baseline.valuation ~target ();
    let ff_work =
      (* On refresh commits FastFlip pays for the simultaneous
         ground-truth campaign as well (§4.10). *)
      ff.Pipeline.work + (if refreshed then base.Baseline.work else 0)
    in
    steps :=
      {
        commit;
        edited_kernel = kernel;
        ff_work;
        base_work = base.Baseline.work;
        refreshed;
        achieved = achieved_of ff base !adjust;
        sections_reused = ff.Pipeline.sections_reused;
        sections_total = total_sections;
      }
      :: !steps
  done;
  List.rev !steps

let fields steps =
  let open Ff_support.Json in
  let total work = List.fold_left (fun acc s -> acc + work s) 0 steps in
  let ff_total = total (fun s -> s.ff_work) in
  let base_total = total (fun s -> s.base_work) in
  ( "Evolution experiment: a chain of bit-identical commits, FastFlip with\n\
     adjusted-target reuse (refresh every P_adj commits) vs re-running the\n\
     monolithic baseline each time.\n\
     cumulative speedup = how many times cheaper FastFlip was over the history.",
    [
      ( "steps",
        Tables.objects
          (List.map
             (fun s ->
               [
                 ("commit", Int s.commit);
                 ("edited_kernel", Str s.edited_kernel);
                 ("reused", Int s.sections_reused);
                 ("sections", Int s.sections_total);
                 ("fastflip_work", Int s.ff_work);
                 ("baseline_work", Int s.base_work);
                 ("refresh", Bool s.refreshed);
                 ("v_achv@0.90", Float (s.achieved, 3));
               ])
             steps) );
      ("cumulative work fastflip", Int ff_total);
      ("cumulative work baseline", Int base_total);
      ( "cumulative speedup",
        Float (float_of_int base_total /. float_of_int (max 1 ff_total), 1) );
    ] )
