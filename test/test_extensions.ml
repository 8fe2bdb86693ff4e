(* Tests for the extension features: burst error model, cost models,
   common-subexpression elimination, untested sites, store persistence,
   and the evolution experiment. *)

module Site = Ff_inject.Site
module Campaign = Ff_inject.Campaign
module Fault_model = Ff_inject.Fault_model
module Machine = Ff_vm.Machine
module Golden = Ff_vm.Golden
module Frontend = Ff_lang.Frontend
module Opt = Ff_lang.Opt
open Fastflip

let compile src = Result.get_ok (Frontend.compile src)

let quick_config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 2; 40; 63 ] };
    sensitivity_samples = 60;
  }

(* --- burst error model ---------------------------------------------------- *)

let test_burst_bits () =
  Alcotest.(check (list int)) "width 1" [ 5 ] (Machine.burst_bits ~bit:5 ~burst:1);
  Alcotest.(check (list int)) "width 3" [ 5; 6; 7 ] (Machine.burst_bits ~bit:5 ~burst:3);
  Alcotest.(check (list int)) "wraps" [ 63; 0 ] (Machine.burst_bits ~bit:63 ~burst:2);
  Alcotest.(check (list int)) "width clamps to 1" [ 9 ] (Machine.burst_bits ~bit:9 ~burst:0)

let burst_kernel =
  {
    Ff_ir.Kernel.name = "k";
    params = [ Ff_ir.Kernel.Buffer ("b", Ff_ir.Value.TInt, Ff_ir.Kernel.InOut) ];
    code =
      [|
        Ff_ir.Instr.Iconst (0, 0L);
        Ff_ir.Instr.Load (1, 0, 0);
        Ff_ir.Instr.Store (0, 0, 1);
        Ff_ir.Instr.Halt;
      |];
    nregs = 2;
  }

let test_burst_flips_adjacent_bits () =
  let buffers = [| [| Ff_ir.Value.Int 0L |] |] in
  let injection = { Machine.at_dyn = 1; operand = Machine.Odst; bit = 4 } in
  ignore (Machine.exec burst_kernel ~scalars:[] ~buffers ~budget:100 ~injection ~burst:3 ());
  (* bits 4,5,6 of 0 -> 0b111_0000 = 112 *)
  Alcotest.(check bool) "three adjacent bits flipped" true
    (buffers.(0).(0) = Ff_ir.Value.Int 112L)

let test_burst_config_changes_hash () =
  let c1 = Campaign.default_config in
  let c2 = { c1 with Campaign.model = Fault_model.Bitflip { burst = 2 } } in
  Alcotest.(check bool) "burst in config hash" false
    (Int64.equal (Campaign.config_hash c1) (Campaign.config_hash c2))

let test_burst_campaign_runs () =
  let src =
    {|buffer a : float[2] = { 0.5, 0.25 };
output buffer res : float[2] = zeros;
kernel k(in a: float[], out res: float[]) {
  for i in 0..2 { res[i] = a[i] * 2.0; }
}
schedule { call k(a, res); }|}
  in
  let golden = Golden.run (compile src) in
  let config =
    { quick_config.Pipeline.campaign with Campaign.model = Fault_model.Bitflip { burst = 2 } }
  in
  let result = Campaign.run_section golden ~section_index:0 config in
  Alcotest.(check bool) "burst campaign completes" true (result.Campaign.s_injections > 0)

(* --- cost models ------------------------------------------------------------- *)

let chain_src =
  {|buffer a : float[4] = { 0.5, 0.25, 0.125, 2.0 };
buffer mid : float[4] = zeros;
output buffer res : float[4] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..4 { mid[i] = a[i] * 2.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..4 { res[i] = mid[i] + 1.0; }
}
schedule {
  call first(a, mid);
  call second(mid, res);
}|}

let analysis = lazy (Pipeline.analyze quick_config (compile chain_src))

let test_cost_model_per_instruction_is_default () =
  let a = Lazy.force analysis in
  let d = Costmodel.items Costmodel.Per_instruction ~valuation:a.Pipeline.valuation
            ~golden:a.Pipeline.golden in
  Alcotest.(check int) "same as valuation items"
    (List.length (Knapsack.items_of_valuation a.Pipeline.valuation))
    (List.length d)

let test_cost_model_drift_discounts () =
  let a = Lazy.force analysis in
  let plain = Costmodel.items Costmodel.Per_instruction ~valuation:a.Pipeline.valuation
                ~golden:a.Pipeline.golden in
  let drift = Costmodel.items (Costmodel.Drift_clustered 0.3)
                ~valuation:a.Pipeline.valuation ~golden:a.Pipeline.golden in
  let total items = List.fold_left (fun acc (i : Knapsack.item) -> acc + i.Knapsack.cost) 0 items in
  Alcotest.(check bool) "drift total cost lower" true (total drift <= total plain);
  List.iter2
    (fun (p : Knapsack.item) (d : Knapsack.item) ->
      Alcotest.(check bool) "value unchanged" true (p.Knapsack.value = d.Knapsack.value);
      Alcotest.(check bool) "cost never raised" true (d.Knapsack.cost <= p.Knapsack.cost))
    plain drift

let test_cost_model_blocks () =
  let a = Lazy.force analysis in
  let blocks = Costmodel.items Costmodel.Per_kernel_block ~valuation:a.Pipeline.valuation
                 ~golden:a.Pipeline.golden in
  Alcotest.(check int) "one item per vulnerable kernel" 2 (List.length blocks);
  let total_value =
    List.fold_left (fun acc (i : Knapsack.item) -> acc + i.Knapsack.value) 0 blocks
  in
  Alcotest.(check int) "block values cover the whole mass"
    a.Pipeline.valuation.Valuation.total_value total_value;
  List.iter
    (fun (i : Knapsack.item) ->
      Alcotest.(check int) "synthetic pc" (-1) i.Knapsack.pc.Site.instr)
    blocks

let test_expand_block_selection () =
  let a = Lazy.force analysis in
  let expanded =
    Costmodel.expand_block_selection ~golden:a.Pipeline.golden
      [ { Site.kernel = 0; instr = -1 } ]
  in
  Alcotest.(check bool) "expands to real instructions" true (List.length expanded > 3);
  List.iter
    (fun (pc : Site.pc) ->
      Alcotest.(check int) "kernel 0 only" 0 pc.Site.kernel;
      Alcotest.(check bool) "real instr" true (pc.Site.instr >= 0))
    expanded;
  (* Real pcs pass through untouched. *)
  let through =
    Costmodel.expand_block_selection ~golden:a.Pipeline.golden
      [ { Site.kernel = 1; instr = 3 } ]
  in
  Alcotest.(check bool) "passthrough" true (through = [ { Site.kernel = 1; instr = 3 } ])

(* --- CSE ----------------------------------------------------------------------- *)

let test_cse_removes_duplicate_computation () =
  let src =
    {|output buffer res : float[2] = zeros;
kernel k(x: float, out res: float[]) {
  res[0] = x * x + 1.0;
  res[1] = x * x + 2.0;
}
schedule { call k(1.5, res); }|}
  in
  let program = compile src in
  let k = Option.get (Ff_ir.Program.find_kernel program "k") in
  let count_mul kernel =
    Array.fold_left
      (fun acc i ->
        match i with Ff_ir.Instr.Fbin (Ff_ir.Instr.Fmul, _, _, _) -> acc + 1 | _ -> acc)
      0 kernel.Ff_ir.Kernel.code
  in
  Alcotest.(check int) "two multiplies before CSE" 2 (count_mul k);
  let after = Opt.dead_code_elimination (Opt.copy_propagate (Opt.common_subexpressions k)) in
  Alcotest.(check int) "one multiply after CSE" 1 (count_mul after);
  (match Ff_ir.Kernel.validate after with
  | Ok () -> ()
  | Error { Ff_ir.Kernel.message; _ } -> Alcotest.failf "invalid after CSE: %s" message)

let test_cse_preserves_semantics () =
  List.iter
    (fun b ->
      let src = b.Ff_benchmarks.Defs.source Ff_benchmarks.Defs.V_none in
      let program = compile src in
      let cse_program =
        {
          program with
          Ff_ir.Program.kernels =
            List.map
              (fun k ->
                Opt.dead_code_elimination
                  (Opt.copy_propagate (Opt.common_subexpressions k)))
              program.Ff_ir.Program.kernels;
        }
      in
      let out g =
        Golden.outputs g |> List.map (fun (_, n, v) -> (n, Array.to_list v))
      in
      if out (Golden.run program) <> out (Golden.run cse_program) then
        Alcotest.failf "%s: CSE changed outputs" b.Ff_benchmarks.Defs.name)
    Ff_benchmarks.Registry.all

let test_cse_not_in_default_pipeline () =
  (* The BScholes Small modification IS hand-applied CSE; the default
     pipeline must not collapse None into it. *)
  let b = Option.get (Ff_benchmarks.Registry.find "BScholes") in
  let hash v =
    let p = compile (b.Ff_benchmarks.Defs.source v) in
    let k = Option.get (Ff_ir.Program.find_kernel p "bs_cndf1") in
    Ff_ir.Kernel.code_hash k
  in
  Alcotest.(check bool) "None and Small stay distinct" false
    (Int64.equal (hash Ff_benchmarks.Defs.V_none) (hash Ff_benchmarks.Defs.V_small))

(* --- untested sites -------------------------------------------------------------- *)

let test_untested_sites_add_value () =
  let a = Lazy.force analysis in
  let v = a.Pipeline.valuation in
  let pc = fst (List.hd v.Valuation.values) in
  let v' = Valuation.with_untested v [ (pc, 100) ] in
  Alcotest.(check int) "total grows" (v.Valuation.total_value + 100) v'.Valuation.total_value;
  Alcotest.(check int) "pc value grows" (Valuation.value_of v pc + 100)
    (Valuation.value_of v' pc);
  (* A fresh pc gets its own entry. *)
  let ghost = { Site.kernel = 7; instr = 99 } in
  let v'' = Valuation.with_untested v [ (ghost, 5) ] in
  Alcotest.(check int) "fresh pc value" 5 (Valuation.value_of v'' ghost)

let test_untested_sites_affect_selection () =
  let a = Lazy.force analysis in
  let v = a.Pipeline.valuation in
  (* Give one pc a dominating untested mass: any selection achieving 90%
     must include it. *)
  let pc = fst (List.hd v.Valuation.values) in
  let v' = Valuation.with_untested v [ (pc, v.Valuation.total_value * 10) ] in
  let sol = Knapsack.solve (Knapsack.items_of_valuation v') in
  let target = int_of_float (0.9 *. float_of_int (Knapsack.max_value sol)) in
  let sel = Knapsack.select sol ~target in
  Alcotest.(check bool) "dominating untested pc selected" true
    (List.mem pc sel.Knapsack.pcs)

(* --- persistence ------------------------------------------------------------------- *)

let test_persist_roundtrip () =
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile chain_src) in
  let path = Filename.temp_file "ffstore" ".bin" in
  let _ = Persist.save store ~path in
  (match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "nothing skipped" 0 skipped;
    Alcotest.(check int) "same record count" (Store.size store) (Store.size loaded);
    let by_key records =
      List.sort compare (List.map (fun r -> r.Store.rec_key) records)
    in
    Alcotest.(check bool) "same keys" true
      (by_key (Store.records store) = by_key (Store.records loaded));
    List.iter
      (fun original ->
        match Store.find loaded original.Store.rec_key with
        | None -> Alcotest.fail "record missing after roundtrip"
        | Some restored ->
          Alcotest.(check bool) "record roundtrips" true
            (Persist.roundtrip_equal original restored))
      (Store.records store));
  Sys.remove path

let test_persist_enables_cross_process_reuse () =
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile chain_src) in
  let path = Filename.temp_file "ffstore" ".bin" in
  let _ = Persist.save store ~path in
  (* A "new process": fresh store loaded from disk re-analyzes nothing. *)
  (match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, _) ->
    let a = Pipeline.analyze ~store:loaded quick_config (compile chain_src) in
    Alcotest.(check int) "everything reused from disk" 0 a.Pipeline.sections_analyzed;
    Alcotest.(check int) "zero new work" 0 a.Pipeline.work);
  Sys.remove path

let test_persist_rejects_garbage () =
  let path = Filename.temp_file "ffstore" ".bin" in
  let write data =
    let oc = open_out_bin path in
    output_string oc data;
    close_out oc
  in
  write "definitely not a store";
  (match Persist.load ~path with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* Earlier formats — the pre-sharding ones and the fixed-width-record
     sharded store — are refused by name, by every entry point that
     reads a store. *)
  List.iter
    (fun magic ->
      write (magic ^ String.make 32 '\000');
      let named what = function
        | Ok _ -> Alcotest.failf "%s accepted a %s file" what magic
        | Error e ->
          Alcotest.(check string) (what ^ " names " ^ magic)
            (Printf.sprintf "unsupported store format %s (only FFSTORE4 is read)" magic)
            e
      in
      named "load" (Persist.load ~path);
      named "stat" (Persist.stat ~path);
      named "compact" (Persist.compact ~path ()))
    [ "FFSTORE1"; "FFSTORE2"; "FFSTORE3" ];
  Sys.remove path;
  match Persist.load ~path:"/nonexistent/nope.bin" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* [Persist.open_store], the one store-open path of the CLI, the daemon
   and the bench, over its four cases: nothing at the path, a clean
   store, a store with a damaged frame (warned about, or refused under
   --strict-store) and a file in a refused older format. *)
let test_open_store () =
  let path = Filename.temp_file "ffstore" ".bin" in
  Sys.remove path;
  let log = Persist.shard_path path 0 in
  let opened ~strict = Persist.open_store ~strict ~path in
  List.iter
    (fun strict ->
      match opened ~strict with
      | Ok (None, None) -> ()
      | _ -> Alcotest.fail "a missing store must open empty, without a warning")
    [ false; true ];
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile chain_src) in
  let _ = Persist.save store ~path ~shards:1 in
  (match opened ~strict:true with
  | Ok (Some loaded, None) ->
    Alcotest.(check int) "clean store loads whole" (Store.size store) (Store.size loaded)
  | _ -> Alcotest.fail "a clean store must load without a warning");
  let data = In_channel.with_open_bin log In_channel.input_all in
  Out_channel.with_open_bin log (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (String.length data - 16)));
  let skipped =
    match Persist.load ~path with
    | Ok (_, skipped) when skipped > 0 -> skipped
    | _ -> Alcotest.fail "the truncated log must load with skipped records"
  in
  (match opened ~strict:false with
  | Ok (Some _, Some warning) ->
    Alcotest.(check string) "damage is warned about"
      (Printf.sprintf "warning: store %s: skipped %d corrupt record(s)" path skipped)
      warning
  | _ -> Alcotest.fail "a damaged store must load with a warning");
  (match opened ~strict:true with
  | Error refusal ->
    Alcotest.(check string) "damage is refused under --strict-store"
      (Printf.sprintf "store %s: %d corrupt record(s) refused by --strict-store" path
         skipped)
      refusal
  | Ok _ -> Alcotest.fail "--strict-store must refuse a damaged store");
  Sys.remove log;
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc ("FFSTORE3" ^ String.make 32 '\000'));
  let format = "unsupported store format FFSTORE3 (only FFSTORE4 is read)" in
  (match opened ~strict:false with
  | Ok (None, Some warning) ->
    Alcotest.(check string) "an old format is ignored"
      (Printf.sprintf "ignoring store %s: %s" path format)
      warning
  | _ -> Alcotest.fail "an FFSTORE3 file must be ignored with a warning");
  (match opened ~strict:true with
  | Error refusal ->
    Alcotest.(check string) "an old format is refused under --strict-store"
      (Printf.sprintf "store %s refused by --strict-store: %s" path format)
      refusal
  | Ok _ -> Alcotest.fail "--strict-store must refuse an FFSTORE3 file");
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ path; path ^ ".lock"; log ^ ".lock" ]

let test_persist_salvages_truncation () =
  (* Chopping a shard log's tail loses at most the record whose frame was
     damaged — [load] succeeds, reports the damage, and every surviving
     record is intact. *)
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile chain_src) in
  let path = Filename.temp_file "ffstore" ".bin" in
  Sys.remove path;
  let _ = Persist.save store ~path ~shards:1 in
  let log = Persist.shard_path path 0 in
  let ic = open_in_bin log in
  let n = in_channel_length ic in
  let data = really_input_string ic (n - 16) in
  close_in ic;
  let oc = open_out_bin log in
  output_string oc data;
  close_out oc;
  (match Persist.load ~path with
  | Error e -> Alcotest.failf "truncated store should salvage, got: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check bool) "truncation reported" true (skipped > 0);
    Alcotest.(check bool) "at most one record lost" true
      (Store.size loaded >= Store.size store - 1);
    List.iter
      (fun r ->
        match Store.find store r.Store.rec_key with
        | None -> Alcotest.fail "salvage invented a record"
        | Some original ->
          Alcotest.(check bool) "survivor intact" true
            (Persist.roundtrip_equal original r))
      (Store.records loaded));
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ path; path ^ ".lock"; log; log ^ ".lock" ]

(* --- evolution --------------------------------------------------------------------- *)

let test_evolution_smoke () =
  let bench = Option.get (Ff_benchmarks.Registry.find "BScholes") in
  let steps = Ff_harness.Evolution.run ~config:quick_config ~p_adj:2 ~commits:4 bench in
  Alcotest.(check int) "5 steps (commit 0 + 4)" 5 (List.length steps);
  let refreshes = List.filter (fun s -> s.Ff_harness.Evolution.refreshed) steps in
  Alcotest.(check bool) "refresh fires at P_adj cadence" true (List.length refreshes >= 2);
  List.iter
    (fun s ->
      if s.Ff_harness.Evolution.commit > 0 then
        Alcotest.(check bool) "later commits reuse sections" true
          (s.Ff_harness.Evolution.sections_reused > 0))
    steps;
  (* The rendered table mentions the cumulative ratio. *)
  let rendered = Ff_harness.Evolution.render steps in
  Alcotest.(check bool) "render mentions cumulative work" true
    (String.length rendered > 0)

let () =
  Alcotest.run "extensions"
    [
      ( "burst",
        [
          Alcotest.test_case "burst_bits" `Quick test_burst_bits;
          Alcotest.test_case "adjacent flips" `Quick test_burst_flips_adjacent_bits;
          Alcotest.test_case "config hash" `Quick test_burst_config_changes_hash;
          Alcotest.test_case "campaign runs" `Quick test_burst_campaign_runs;
        ] );
      ( "cost models",
        [
          Alcotest.test_case "per-instruction default" `Quick
            test_cost_model_per_instruction_is_default;
          Alcotest.test_case "drift discounts" `Quick test_cost_model_drift_discounts;
          Alcotest.test_case "kernel blocks" `Quick test_cost_model_blocks;
          Alcotest.test_case "expand blocks" `Quick test_expand_block_selection;
        ] );
      ( "cse",
        [
          Alcotest.test_case "removes duplicates" `Quick test_cse_removes_duplicate_computation;
          Alcotest.test_case "preserves semantics" `Quick test_cse_preserves_semantics;
          Alcotest.test_case "not in default pipeline" `Quick test_cse_not_in_default_pipeline;
        ] );
      ( "untested sites",
        [
          Alcotest.test_case "adds value" `Quick test_untested_sites_add_value;
          Alcotest.test_case "affects selection" `Quick test_untested_sites_affect_selection;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "cross-process reuse" `Quick test_persist_enables_cross_process_reuse;
          Alcotest.test_case "rejects garbage" `Quick test_persist_rejects_garbage;
          Alcotest.test_case "salvages truncation" `Quick test_persist_salvages_truncation;
          Alcotest.test_case "open_store outcomes" `Quick test_open_store;
        ] );
      ( "evolution",
        [ Alcotest.test_case "smoke" `Quick test_evolution_smoke ] );
    ]
