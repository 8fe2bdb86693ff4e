(* FFSTORE3 sharded-store tests: layout and placement, O(dirty)
   incremental saves, reload identity, per-shard corruption salvage,
   compaction, and multi-domain writers racing a reader. *)

module Site = Ff_inject.Site
module Campaign = Ff_inject.Campaign
module Frontend = Ff_lang.Frontend
open Fastflip

let program_src =
  {|buffer a : float[2] = { 0.5, 0.25 };
buffer mid : float[2] = zeros;
output buffer res : float[2] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..2 { mid[i] = a[i] * 2.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..2 { res[i] = mid[i] + 0.5; }
}
schedule {
  call first(a, mid);
  call second(mid, res);
}|}

let quick_config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 1; 33; 63 ] };
    sensitivity_samples = 60;
  }

let compile src = Result.get_ok (Frontend.compile src)

(* One real analyzed record, cloned under synthetic keys: sharding and
   persistence only look at [rec_key] and the record bytes, so cloning
   lets the tests populate many shards without paying for many
   campaigns. *)
let proto = lazy (
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile program_src) in
  List.hd (Store.records store))

let mk_record i =
  let p = Lazy.force proto in
  {
    p with
    Store.rec_key =
      {
        Store.code_hash = Int64.of_int (0x5151 + (i * 131));
        input_hash = Int64.of_int (0x1234 + (i * 7));
        config_hash = 42L;
      };
  }

let cleanup path =
  (try Sys.remove path with Sys_error _ -> ());
  (try Sys.remove (path ^ ".lock") with Sys_error _ -> ());
  for i = 0 to Persist.max_shards - 1 do
    let sp = Persist.shard_path path i in
    (try Sys.remove sp with Sys_error _ -> ());
    (try Sys.remove (sp ^ ".lock") with Sys_error _ -> ())
  done

let with_temp_store f =
  let path = Filename.temp_file "ffs3" ".bin" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> cleanup path) (fun () -> f path)

let slurp path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let spit path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let check_records_match ~msg expected loaded =
  List.iter
    (fun (r : Store.section_record) ->
      match Store.find loaded r.Store.rec_key with
      | Some found ->
        Alcotest.(check bool) (msg ^ ": record intact") true
          (Persist.roundtrip_equal r found)
      | None -> Alcotest.failf "%s: record lost" msg)
    expected

(* --- layout ---------------------------------------------------------------- *)

let test_sharded_layout_and_stat () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let records = List.init 20 mk_record in
  List.iter (Store.add store) records;
  let s = Persist.save store ~path ~shards:4 in
  Alcotest.(check int) "all appended" 20 s.Persist.sv_appended;
  Alcotest.(check int) "all live" 20 s.Persist.sv_live;
  Alcotest.(check bool) "manifest exists" true (Sys.file_exists path);
  for i = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "shard %d exists" i) true
      (Sys.file_exists (Persist.shard_path path i))
  done;
  Alcotest.(check bool) "no shard beyond the layout" false
    (Sys.file_exists (Persist.shard_path path 4));
  (* [stat] must agree with [shard_of] about where every key lives. *)
  let expected = Array.make 4 0 in
  List.iter
    (fun (r : Store.section_record) ->
      let i = Persist.shard_of ~shards:4 r.Store.rec_key in
      expected.(i) <- expected.(i) + 1)
    records;
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "stat failed: %s" e
  | Ok info ->
    Alcotest.(check int) "shards" 4 info.Persist.st_shards;
    Alcotest.(check int) "live" 20 info.Persist.st_live;
    Alcotest.(check int) "no dead frames" 0 info.Persist.st_dead;
    Alcotest.(check int) "nothing skipped" 0 info.Persist.st_skipped;
    List.iter
      (fun (sh : Persist.shard_info) ->
        Alcotest.(check int)
          (Printf.sprintf "shard %d placement" sh.Persist.sh_index)
          expected.(sh.Persist.sh_index) sh.Persist.sh_live)
      info.Persist.st_per_shard);
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "pristine" 0 skipped;
    Alcotest.(check int) "size" 20 (Store.size loaded);
    check_records_match ~msg:"roundtrip" records loaded

(* --- O(dirty) saves -------------------------------------------------------- *)

let test_save_is_o_dirty () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  List.iter (Store.add store) (List.init 20 mk_record);
  let s1 = Persist.save store ~path in
  Alcotest.(check int) "initial save writes everything" 20 s1.Persist.sv_appended;
  let s2 = Persist.save store ~path in
  Alcotest.(check int) "clean save appends nothing" 0 s2.Persist.sv_appended;
  Alcotest.(check int64) "no-op save keeps the generation" s1.Persist.sv_generation
    s2.Persist.sv_generation;
  List.iter (Store.add store) [ mk_record 20; mk_record 21; mk_record 22 ];
  let s3 = Persist.save store ~path in
  Alcotest.(check int) "delta save appends exactly the delta" 3
    s3.Persist.sv_appended;
  Alcotest.(check bool) "content change bumps the generation" true
    (s3.Persist.sv_generation > s2.Persist.sv_generation);
  (* Replacing an existing key is one dirty record, not a rewrite. *)
  Store.add store (mk_record 5);
  let s4 = Persist.save store ~path in
  Alcotest.(check int) "replacement appends one" 1 s4.Persist.sv_appended;
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "pristine" 0 skipped;
    Alcotest.(check int) "size" 23 (Store.size loaded);
    check_records_match ~msg:"delta log" (Store.records store) loaded

let selection_equal a b =
  let sa = Pipeline.select a ~target:0.9 and sb = Pipeline.select b ~target:0.9 in
  sa.Knapsack.pcs = sb.Knapsack.pcs
  && sa.Knapsack.value = sb.Knapsack.value
  && sa.Knapsack.cost = sb.Knapsack.cost

let check_bit_identical ~msg (a : Pipeline.analysis) (b : Pipeline.analysis) =
  Alcotest.(check int) (msg ^ ": section count")
    (Array.length a.Pipeline.sections)
    (Array.length b.Pipeline.sections);
  Array.iteri
    (fun i ra ->
      Alcotest.(check bool) (Printf.sprintf "%s: section %d record" msg i) true
        (Persist.roundtrip_equal ra b.Pipeline.sections.(i)))
    a.Pipeline.sections;
  Alcotest.(check bool) (msg ^ ": valuation") true
    (a.Pipeline.valuation.Valuation.values = b.Pipeline.valuation.Valuation.values);
  Alcotest.(check bool) (msg ^ ": knapsack selection") true (selection_equal a b)

let test_pipeline_bit_identity_after_reload () =
  (* The incremental contract: an analysis served from a saved and
     reloaded store is bit-identical to the from-scratch reference, and
     stays so across a second save/load round. *)
  with_temp_store @@ fun path ->
  let program = compile program_src in
  let store = Store.create () in
  let reference = Pipeline.analyze ~store quick_config program in
  let _ = Persist.save store ~path in
  let reload msg =
    match Persist.load ~path with
    | Error e -> Alcotest.failf "%s: load failed: %s" msg e
    | Ok (loaded, skipped) ->
      Alcotest.(check int) (msg ^ ": pristine") 0 skipped;
      let served = Pipeline.analyze ~store:loaded quick_config program in
      Alcotest.(check int) (msg ^ ": everything reused") 0
        served.Pipeline.sections_analyzed;
      check_bit_identical ~msg reference served;
      loaded
  in
  let first = reload "first reload" in
  let _ = Persist.save first ~path in
  ignore (reload "second reload")

(* --- corruption ------------------------------------------------------------ *)

(* Pristine 4-shard image shared by the corruption fuzz: the records,
   the manifest bytes, and each shard log's bytes. *)
let sharded_pristine = lazy (
  let store = Store.create () in
  List.iter (Store.add store) (List.init 32 mk_record);
  let path = Filename.temp_file "ffs3fix" ".bin" in
  Sys.remove path;
  let _ = Persist.save store ~path ~shards:4 in
  let manifest = slurp path in
  let shards = Array.init 4 (fun i -> slurp (Persist.shard_path path i)) in
  cleanup path;
  (store, manifest, shards))

let corrupt ~kind ~frac ~byte data =
  let n = String.length data in
  let off = min (n - 1) (int_of_float (frac *. float_of_int n)) in
  match kind with
  | 0 ->
    let b = Bytes.of_string data in
    Bytes.set b off
      (Char.chr (Char.code (Bytes.get b off) lxor (1 + (byte mod 255))));
    Bytes.to_string b
  | 1 -> String.sub data 0 off
  | 2 ->
    let b = Bytes.of_string data in
    for i = off to min (n - 1) (off + 15) do
      Bytes.set b i '\000'
    done;
    Bytes.to_string b
  | _ -> String.sub data 0 off ^ String.make 5 (Char.chr byte) ^ String.sub data off (n - off)

let prop_corrupt_shard_salvage =
  QCheck2.Test.make ~count:100
    ~name:"corrupt shard: load never raises, siblings survive intact"
    QCheck2.Gen.(
      quad (int_range 0 3) (int_range 0 3) (float_bound_exclusive 1.0)
        (int_range 0 255))
    (fun (victim, kind, frac, byte) ->
      let store, manifest, shards = Lazy.force sharded_pristine in
      let path = Filename.temp_file "ffs3fuzz" ".bin" in
      Sys.remove path;
      spit path manifest;
      Array.iteri
        (fun i data ->
          let data = if i = victim then corrupt ~kind ~frac ~byte data else data in
          spit (Persist.shard_path path i) data)
        shards;
      let result = Persist.load ~path in
      cleanup path;
      match result with
      | Error _ -> false (* the manifest is intact: load must succeed *)
      | Ok (loaded, skipped) ->
        (* Damage is confined: every record hashed to a sibling shard
           survives byte-identically. *)
        List.for_all
          (fun (r : Store.section_record) ->
            Persist.shard_of ~shards:4 r.Store.rec_key = victim
            ||
            match Store.find loaded r.Store.rec_key with
            | Some found -> Persist.roundtrip_equal r found
            | None -> false)
          (Store.records store)
        (* Salvage never invents or distorts a record... *)
        && List.for_all
             (fun (r : Store.section_record) ->
               match Store.find store r.Store.rec_key with
               | Some original -> Persist.roundtrip_equal original r
               | None -> false)
             (Store.records loaded)
        (* ...and never drops one silently. *)
        && (Store.size loaded = Store.size store || skipped > 0))

let test_manifest_corruption_salvages_from_shards () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let records = List.init 12 mk_record in
  List.iter (Store.add store) records;
  let _ = Persist.save store ~path ~shards:4 in
  let manifest = slurp path in
  (* Tear the manifest's tail: the frame is damaged but the magic
     survives, so the loader falls back to probing the logs. *)
  spit path (String.sub manifest 0 (String.length manifest - 5));
  (match Persist.load ~path with
  | Error e -> Alcotest.failf "torn manifest should salvage: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check bool) "damage reported" true (skipped > 0);
    Alcotest.(check int) "every record salvaged" 12 (Store.size loaded);
    check_records_match ~msg:"torn manifest" records loaded);
  (* Destroy the magic outright: the shard logs still identify
     themselves, so the store remains loadable. *)
  spit path ("XXXXXXXX" ^ String.sub manifest 8 (String.length manifest - 8));
  match Persist.load ~path with
  | Error e -> Alcotest.failf "destroyed manifest should salvage: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check bool) "damage reported" true (skipped > 0);
    Alcotest.(check int) "every record salvaged" 12 (Store.size loaded);
    check_records_match ~msg:"destroyed manifest" records loaded

let test_missing_manifest_salvages_from_shards () =
  (* A writer SIGKILLed between its first shard write and the first
     manifest write leaves logs but no manifest at all — everything
     fsynced into the logs must still load, and stat must agree. *)
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let records = List.init 9 mk_record in
  List.iter (Store.add store) records;
  let _ = Persist.save store ~path ~shards:4 in
  Sys.remove path;
  (match Persist.load ~path with
  | Error e -> Alcotest.failf "missing manifest should salvage: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check bool) "damage reported" true (skipped > 0);
    Alcotest.(check int) "every record salvaged" 9 (Store.size loaded);
    check_records_match ~msg:"missing manifest" records loaded);
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "stat should salvage too: %s" e
  | Ok info -> Alcotest.(check int) "stat sees the records" 9 info.Persist.st_live);
  (* With neither manifest nor logs, the path is simply not a store. *)
  let empty = Filename.temp_file "ffstore3_none" ".bin" in
  Sys.remove empty;
  match Persist.load ~path:empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a path with no files at all should not load"

let test_save_over_orphaned_logs_keeps_them () =
  (* The mid-first-save crash window again, now followed by a save from
     a process that never loaded the orphaned logs: the rebuild must merge
     them, not overwrite them with its own records. *)
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let records = List.init 10 mk_record in
  List.iter (Store.add store) records;
  let _ = Persist.save store ~path in
  Sys.remove path;
  let fresh = Store.create () in
  let extra = mk_record 10 in
  Store.add fresh extra;
  let s = Persist.save fresh ~path in
  Alcotest.(check int) "rebuild writes the union" 11 s.Persist.sv_appended;
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "pristine after the rebuild" 0 skipped;
    Alcotest.(check int) "orphaned records survive" 11 (Store.size loaded);
    check_records_match ~msg:"orphaned logs" (extra :: records) loaded

(* --- compaction ------------------------------------------------------------ *)

let test_compaction_auto () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let r0 = mk_record 0 and r1 = mk_record 1 in
  Store.add store r0;
  Store.add store r1;
  let _ = Persist.save store ~path ~shards:1 in
  (* Each wave supersedes both records; the lone shard log accumulates
     dead frames until the save-time threshold rewrites it. *)
  let compacted = ref 0 in
  for _ = 1 to 6 do
    Store.add store r0;
    Store.add store r1;
    let s = Persist.save store ~path in
    compacted := !compacted + s.Persist.sv_compacted
  done;
  Alcotest.(check bool) "auto-compaction fired" true (!compacted > 0);
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "stat failed: %s" e
  | Ok info ->
    Alcotest.(check int) "live" 2 info.Persist.st_live;
    Alcotest.(check bool) "dead frames bounded by the threshold" true
      (info.Persist.st_dead < 8));
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "pristine" 0 skipped;
    Alcotest.(check int) "two live records" 2 (Store.size loaded);
    check_records_match ~msg:"compacted log" [ r0; r1 ] loaded

let test_compact_reshards () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let records = List.init 24 mk_record in
  List.iter (Store.add store) records;
  let _ = Persist.save store ~path ~shards:4 in
  (* Supersede everything once: 24 dead frames, below the auto
     threshold (12 frames vs 2*6 live per shard), so they persist until
     the explicit compact. *)
  List.iter (Store.add store) records;
  let _ = Persist.save store ~path in
  (match Persist.compact ~path ~shards:8 () with
  | Error e -> Alcotest.failf "compact failed: %s" e
  | Ok cp ->
    Alcotest.(check int) "live" 24 cp.Persist.cp_live;
    Alcotest.(check int) "dead frames dropped" 24 cp.Persist.cp_dropped;
    Alcotest.(check int) "resharded" 8 cp.Persist.cp_shards);
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "stat failed: %s" e
  | Ok info ->
    Alcotest.(check int) "new layout" 8 info.Persist.st_shards;
    Alcotest.(check int) "live" 24 info.Persist.st_live;
    Alcotest.(check int) "no dead frames" 0 info.Persist.st_dead);
  Alcotest.(check bool) "old layout has no stale extra logs" true
    (Sys.file_exists (Persist.shard_path path 7));
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "pristine" 0 skipped;
    Alcotest.(check int) "size" 24 (Store.size loaded);
    check_records_match ~msg:"resharded" records loaded

(* --- concurrency ------------------------------------------------------------ *)

let test_concurrent_writers_and_reader () =
  (* Four domains race incremental saves — writers 0 and 1 share five
     keys (overlapping shards), the rest are disjoint — while a reader
     domain loads continuously. Re-adding the same keys each wave piles
     up superseded frames, so auto-compaction also runs under the race.
     The reader must never see an error or a distorted record; the
     final store must hold exactly the union. *)
  with_temp_store @@ fun path ->
  let keys_for d =
    let own = List.init 5 (fun i -> 300 + (d * 10) + i) in
    if d = 1 then own @ List.init 5 (fun i -> 300 + i) else own
  in
  let records_for d = List.map mk_record (keys_for d) in
  let union : (Store.key, Store.section_record) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun d ->
      List.iter
        (fun (r : Store.section_record) -> Hashtbl.replace union r.Store.rec_key r)
        (records_for d))
    [ 0; 1; 2; 3 ];
  (* Seed the v3 layout before the race so every writer appends. *)
  let seed_record = mk_record 299 in
  Hashtbl.replace union seed_record.Store.rec_key seed_record;
  let seed = Store.create () in
  Store.add seed seed_record;
  let _ = Persist.save seed ~path ~shards:4 in
  let stop = Atomic.make false in
  let reader_ok = Atomic.make true in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Persist.load ~path with
          | Error _ -> Atomic.set reader_ok false
          | Ok (loaded, _) ->
            List.iter
              (fun (r : Store.section_record) ->
                match Hashtbl.find_opt union r.Store.rec_key with
                | Some original when Persist.roundtrip_equal original r -> ()
                | _ -> Atomic.set reader_ok false)
              (Store.records loaded)
        done)
  in
  let writers =
    List.map
      (fun d ->
        Domain.spawn (fun () ->
            let store = Store.create () in
            let rs = records_for d in
            for _ = 1 to 4 do
              List.iter (Store.add store) rs;
              ignore (Persist.save store ~path)
            done))
      [ 0; 1; 2; 3 ]
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check bool) "reader never saw an error or a bad record" true
    (Atomic.get reader_ok);
  match Persist.load ~path with
  | Error e -> Alcotest.failf "final load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "quiesced store is pristine" 0 skipped;
    Alcotest.(check int) "exactly the union" (Hashtbl.length union)
      (Store.size loaded);
    Hashtbl.iter
      (fun key original ->
        match Store.find loaded key with
        | Some found ->
          Alcotest.(check bool) "record intact under concurrency" true
            (Persist.roundtrip_equal original found)
        | None -> Alcotest.fail "record lost under concurrency")
      union

let () =
  Alcotest.run "store3"
    [
      ( "layout",
        [
          Alcotest.test_case "sharded layout and stat" `Quick
            test_sharded_layout_and_stat;
          Alcotest.test_case "save is O(dirty)" `Quick test_save_is_o_dirty;
        ] );
      ( "reload",
        [
          Alcotest.test_case "pipeline bit-identity" `Quick
            test_pipeline_bit_identity_after_reload;
        ] );
      ( "corruption",
        [
          QCheck_alcotest.to_alcotest prop_corrupt_shard_salvage;
          Alcotest.test_case "manifest corruption salvages from shards" `Quick
            test_manifest_corruption_salvages_from_shards;
          Alcotest.test_case "missing manifest salvages from shards" `Quick
            test_missing_manifest_salvages_from_shards;
          Alcotest.test_case "save over orphaned shard logs keeps them" `Quick
            test_save_over_orphaned_logs_keeps_them;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "auto-compaction at save time" `Quick
            test_compaction_auto;
          Alcotest.test_case "explicit compact reshards" `Quick
            test_compact_reshards;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "4 writers vs reader" `Quick
            test_concurrent_writers_and_reader;
        ] );
    ]
