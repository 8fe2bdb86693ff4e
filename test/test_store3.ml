(* FFSTORE4 sharded-store tests: layout and placement, O(dirty)
   incremental saves, reload identity, the compact record codec (every
   benchmark round-trips, group member lists stay shared, corrupt
   payloads raise only [Wire.Corrupt], the LUD store stays small),
   per-shard corruption salvage, compaction, and multi-domain writers
   racing a reader. *)

module Site = Ff_inject.Site
module Eqclass = Ff_inject.Eqclass
module Outcome = Ff_inject.Outcome
module Campaign = Ff_inject.Campaign
module Sensitivity = Ff_sensitivity.Sensitivity
module Frontend = Ff_lang.Frontend
module Defs = Ff_benchmarks.Defs
module Registry = Ff_benchmarks.Registry
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

(* --- record codec ------------------------------------------------------------ *)

let encode record =
  let buf = Buffer.create 1024 in
  Wire.w_record buf record;
  Buffer.contents buf

let decode ?len payload = Wire.r_record (Wire.cursor ?len payload)

(* The bit classes of a (pc, operand) group are adjacent and must hold
   one physically shared group, and so one member array; bit-equal
   outcomes within the record must be one physical value. *)
let check_groups_share ~msg (record : Store.section_record) =
  let classes = record.Store.rec_campaign.Campaign.s_classes in
  let groups = ref 0 in
  for i = 1 to Array.length classes - 1 do
    let (a : Eqclass.t), _ = classes.(i - 1) and (b : Eqclass.t), _ = classes.(i) in
    if Eqclass.pc a = Eqclass.pc b && Eqclass.operand a = Eqclass.operand b then begin
      incr groups;
      if a.Eqclass.group != b.Eqclass.group then
        Alcotest.failf "%s: classes %d and %d of one (pc, operand) hold separate groups"
          msg (i - 1) i
    end
  done;
  Alcotest.(check bool) (msg ^ ": has multi-bit groups") true (!groups > 0);
  let held = Hashtbl.create 64 in
  Array.iteri
    (fun i (_, outcome) ->
      let h = Hashtbl.hash outcome in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt held h) in
      match List.find_opt (Outcome.section_equal outcome) bucket with
      | Some first when first != outcome ->
        Alcotest.failf "%s: class %d holds its own copy of an earlier outcome" msg i
      | Some _ -> ()
      | None -> Hashtbl.replace held h (outcome :: bucket))
    classes

(* Default-config None analyses of every benchmark, each in its own
   store (what the CI flow persists before the first edit). *)
let benchmark_stores = lazy (
  List.map
    (fun (bench : Defs.t) ->
      let store = Store.create () in
      let program = compile (bench.Defs.source Defs.V_none) in
      ignore (Pipeline.analyze ~store Pipeline.default_config program);
      (bench.Defs.name, store))
    Registry.all)

let shard_log_bytes path =
  List.fold_left
    (fun acc i ->
      let sp = Persist.shard_path path i in
      if Sys.file_exists sp then acc + (Unix.stat sp).Unix.st_size else acc)
    0
    (List.init Persist.max_shards Fun.id)

let test_benchmark_records_roundtrip () =
  List.iter
    (fun (name, store) ->
      with_temp_store @@ fun path ->
      let records = Store.records store in
      List.iter (check_groups_share ~msg:name) records;
      List.iter
        (fun r ->
          let bytes = encode r in
          let back = decode bytes in
          Alcotest.(check bool) (name ^ ": codec round-trip") true
            (Persist.roundtrip_equal r back);
          Alcotest.(check string) (name ^ ": re-encoding is byte-identical") bytes
            (encode back))
        records;
      let _ = Persist.save store ~path in
      match Persist.load ~path with
      | Error e -> Alcotest.failf "%s: load failed: %s" name e
      | Ok (loaded, skipped) ->
        Alcotest.(check int) (name ^ ": pristine") 0 skipped;
        Alcotest.(check int) (name ^ ": size") (List.length records) (Store.size loaded);
        check_records_match ~msg:name records loaded;
        List.iter (check_groups_share ~msg:(name ^ " after load")) (Store.records loaded))
    (Lazy.force benchmark_stores)

let test_lud_store_size () =
  (* 14.2 MB with fixed-width ints and every class's member list
     written in full. *)
  with_temp_store @@ fun path ->
  let _ = Persist.save (List.assoc "LUD" (Lazy.force benchmark_stores)) ~path in
  let bytes = shard_log_bytes path in
  if bytes > 1 lsl 20 then
    Alcotest.failf "LUD/None store: shard logs total %d bytes, more than 1 MiB" bytes

(* A class is a bit over a shared group and its outcome is interned, so
   a record costs a few words per class beyond the groups' member lists
   and the distinct outcomes: ≈10.9 here, 23.8 when every class held its
   own pc, operand, pilot site and outcome. Fresh and after a reload. *)
let max_words_per_class = 12.0

let test_lud_records_stay_lean () =
  let check msg records =
    let classes =
      List.fold_left
        (fun acc (r : Store.section_record) ->
          acc + Array.length r.Store.rec_campaign.Campaign.s_classes)
        0 records
    in
    let words = Obj.reachable_words (Obj.repr records) in
    let per_class = float_of_int words /. float_of_int classes in
    if per_class > max_words_per_class then
      Alcotest.failf "%s: LUD/None records take %.1f words per class, more than %.0f" msg
        per_class max_words_per_class
  in
  let store = List.assoc "LUD" (Lazy.force benchmark_stores) in
  check "fresh" (Store.records store);
  with_temp_store @@ fun path ->
  let _ = Persist.save store ~path in
  match Persist.load ~path with
  | Ok (loaded, 0) -> check "after load" (Store.records loaded)
  | Ok (_, skipped) -> Alcotest.failf "load skipped %d" skipped
  | Error e -> Alcotest.failf "load failed: %s" e

(* The encoder writes its int64s and floats in place and loops over a
   class's members and magnitudes without closures, so encoding into a
   reused buffer allocates little: ≈720 minor words per LUD/None record
   here, ≈12 800 when every primitive boxed an [Int64] and every class
   built its loop closures. *)
let max_encode_words_per_record = 1500.0

let test_encoder_allocates_little () =
  let records = Store.records (List.assoc "LUD" (Lazy.force benchmark_stores)) in
  let buf = Buffer.create 4096 in
  List.iter (Wire.w_record buf) records;
  Buffer.clear buf;
  let before = Gc.minor_words () in
  List.iter (Wire.w_record buf) records;
  let words = Gc.minor_words () -. before in
  let per_record = words /. float_of_int (List.length records) in
  if per_record > max_encode_words_per_record then
    Alcotest.failf "w_record allocates %.0f minor words per LUD/None record, more than %.0f"
      per_record max_encode_words_per_record

(* Every path of the codec, including the ones per-section campaigns
   never take: members and a pilot outside the record's section (the
   pilot through the group's representative), a memory operand, negative
   and large ints, and equal member lists that are not physically
   shared. *)
let synthetic_record () =
  let p = Lazy.force proto in
  let camp = p.Store.rec_campaign in
  let classes = Array.copy camp.Campaign.s_classes in
  let cls0, _ = classes.(0) in
  let group =
    {
      cls0.Eqclass.group with
      Eqclass.g_operand = Site.Mem 2;
      g_members = [| (7, 100); (camp.Campaign.section_index, -3); (max_int, min_int) |];
      g_representative = (5, snd cls0.Eqclass.group.Eqclass.g_representative);
    }
  in
  let odd = { Eqclass.group; bit = 63 } in
  let copy =
    {
      odd with
      Eqclass.group =
        { group with Eqclass.g_members = Array.copy group.Eqclass.g_members };
    }
  in
  let sdc = Outcome.S_sdc [| (0, 0.0); (3, -1.5e300); (1, Float.nan) |] in
  let extra = [| (odd, Outcome.S_detected Outcome.Timed_out); (copy, sdc) |] in
  {
    p with
    Store.rec_work = -1;
    rec_campaign =
      { camp with Campaign.s_classes = Array.append classes extra; s_work = max_int };
    rec_sensitivity =
      { p.Store.rec_sensitivity with Sensitivity.section_index = -2; samples_used = 1 lsl 40 };
  }

let test_synthetic_roundtrip () =
  let r = synthetic_record () in
  let bytes = encode r in
  let back = decode bytes in
  Alcotest.(check bool) "every codec path round-trips" true (Persist.roundtrip_equal r back);
  Alcotest.(check string) "content decides the bytes, not sharing" bytes (encode back);
  let classes = back.Store.rec_campaign.Campaign.s_classes in
  let n = Array.length classes in
  let (a : Eqclass.t), _ = classes.(n - 2) and (b : Eqclass.t), _ = classes.(n - 1) in
  Alcotest.(check bool) "equal member lists decode shared" true
    (Eqclass.members a == Eqclass.members b);
  Alcotest.(check bool) "and so does their group" true
    (a.Eqclass.group == b.Eqclass.group)

(* Words the decoder may allocate per payload byte. Well-formed records
   of the five benchmarks take at most ≈40; a count that outran the
   bytes left would allocate a word per claimed element, however short
   the payload. *)
let max_alloc_per_byte = 160.0

(* Decode [len] bytes of [payload]: [`Ok] or [`Corrupt], never another
   exception, and never more allocation than the bytes justify. *)
(* [Gc.counters]'s minor count lags until the next minor collection;
   [Gc.minor_words] does not. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let decode_bounded ?len payload =
  let bytes = match len with Some l -> l | None -> String.length payload in
  let before = allocated_words () in
  let result =
    match decode ?len payload with
    | _ -> `Ok
    | exception Wire.Corrupt _ -> `Corrupt
  in
  let words = allocated_words () -. before in
  if words > (max_alloc_per_byte *. float_of_int bytes) +. 4096.0 then
    Alcotest.failf "decoding %d bytes allocated %.0f words" bytes words;
  result

let test_truncation_raises_only_corrupt () =
  List.iter
    (fun (what, r) ->
      let payload = encode r in
      for len = 0 to String.length payload - 1 do
        match decode_bounded ~len payload with
        | `Corrupt -> ()
        | `Ok -> Alcotest.failf "%s: a %d-byte prefix decoded" what len
      done)
    [ ("proto", Lazy.force proto); ("synthetic", synthetic_record ()) ]

let prop_flipped_bytes_raise_only_corrupt =
  QCheck2.Test.make ~count:500
    ~name:"flipped payload bytes: r_record raises only Corrupt, allocation bounded"
    QCheck2.Gen.(
      pair bool (list_size (int_range 1 6) (pair (float_bound_exclusive 1.0) (int_range 1 255))))
    (fun (synthetic, flips) ->
      let payload = encode (if synthetic then synthetic_record () else Lazy.force proto) in
      let b = Bytes.of_string payload in
      List.iter
        (fun (frac, x) ->
          let off = int_of_float (frac *. float_of_int (Bytes.length b)) in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor x)))
        flips;
      match decode_bounded (Bytes.to_string b) with `Ok | `Corrupt -> true)

(* Hand-built payloads: the key hashes of a real record, then
   non-negative ints as LEB128 varints. *)
let key_bytes = lazy (String.sub (encode (Lazy.force proto)) 0 24)

let uvars vs =
  let buf = Buffer.create 16 in
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (v land 0x7f lor 0x80));
      go (v lsr 7)
    end
  in
  List.iter go vs;
  Buffer.contents buf

(* pc (0, 0), Dst, bit 0, one in-section member at dyn 0, the derived
   pilot at dyn 0, a crash outcome. *)
let one_class = [ 0; 0; 1; 0; 1; 1; 0; 0; 0; 0; 0 ]

let test_huge_count_is_refused () =
  (* Class counts past the bytes left, right after a valid header, each
     followed by one well-formed class: refused before an array of that
     many elements is allocated. *)
  List.iter
    (fun count ->
      let payload = Lazy.force key_bytes ^ uvars ([ 0; 0; 0; 0; 0; count ] @ one_class) in
      match decode_bounded payload with
      | `Corrupt -> ()
      | `Ok -> Alcotest.failf "a class count of %d decoded" count)
    [ 1 lsl 40; 1_000_000 ]

let test_foreign_pilot_is_refused () =
  (* One class at pc (0, 0), Dst, bit 0, with one member, whose pilot is
     written in full (tag 1), then a crash outcome and an empty
     sensitivity. A class's pilot is derived from its group, so a pilot
     naming another pc, operand or bit has no representation and must
     be refused; the class's own site decodes. *)
  let payload pilot =
    Lazy.force key_bytes
    ^ uvars
        ([ 0; 0; 0; 0; 0; 1 ] @ [ 0; 0; 1; 0; 1; 1; 0; 1 ] @ pilot
        @ [ 0; 0 ] @ [ 0; 0; 0; 0; 0; 0 ])
  in
  (* section, dyn, pc (kernel, instr), operand, bit *)
  let own = [ 0; 0; 0; 0; 1; 0 ] in
  (match decode_bounded (payload own) with
  | `Ok -> ()
  | `Corrupt -> Alcotest.fail "the class's own site, written in full, was refused");
  List.iter
    (fun (what, pilot) ->
      match decode_bounded (payload pilot) with
      | `Corrupt -> ()
      | `Ok -> Alcotest.failf "a pilot at another %s decoded" what)
    [
      ("bit", [ 0; 0; 0; 0; 1; 5 ]);
      ("instruction", [ 0; 0; 0; 3; 1; 0 ]);
      ("kernel", [ 0; 0; 2; 0; 1; 0 ]);
      ("operand", [ 0; 0; 0; 0; 0; 1; 0 ]);
    ]

(* --- rebased records ---------------------------------------------------------- *)

(* [program_src] with an unrelated section scheduled first: both of its
   sections are reused one schedule index later. Buffers are appended so
   the existing sections keep their golden input hashes. *)
let shifted_src =
  {|buffer a : float[2] = { 0.5, 0.25 };
buffer mid : float[2] = zeros;
output buffer res : float[2] = zeros;
buffer b : float[2] = { 1.5, 2.5 };
output buffer res2 : float[2] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..2 { mid[i] = a[i] * 2.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..2 { res[i] = mid[i] + 0.5; }
}
kernel third(in b: float[], out res2: float[]) {
  for i in 0..2 { res2[i] = b[i] - 1.0; }
}
schedule {
  call third(b, res2);
  call first(a, mid);
  call second(mid, res);
}|}

let test_rebase_keeps_members_shared () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let original = Pipeline.analyze ~store quick_config (compile program_src) in
  Array.iter (check_groups_share ~msg:"fresh analysis") original.Pipeline.sections;
  let _ = Persist.save store ~path in
  let loaded =
    match Persist.load ~path with
    | Ok (loaded, 0) -> loaded
    | Ok (_, skipped) -> Alcotest.failf "load skipped %d" skipped
    | Error e -> Alcotest.failf "load failed: %s" e
  in
  List.iter (check_groups_share ~msg:"after load") (Store.records loaded);
  let shifted = Pipeline.analyze ~store:loaded quick_config (compile shifted_src) in
  Alcotest.(check int) "both old sections reused" 2 shifted.Pipeline.sections_reused;
  Array.iteri
    (fun i (r : Store.section_record) ->
      Alcotest.(check int) "rebased to its schedule index" i
        r.Store.rec_campaign.Campaign.section_index;
      check_groups_share ~msg:(Printf.sprintf "section %d after rebase" i) r;
      Array.iter
        (fun ((cls : Eqclass.t), _) ->
          Array.iter
            (fun (s, _) -> Alcotest.(check int) "member section rebased" i s)
            (Eqclass.members cls))
        r.Store.rec_campaign.Campaign.s_classes)
    shifted.Pipeline.sections


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
          Alcotest.test_case "rebase keeps group members shared" `Quick
            test_rebase_keeps_members_shared;
        ] );
      ( "codec",
        [
          Alcotest.test_case "every benchmark's None records round-trip" `Quick
            test_benchmark_records_roundtrip;
          Alcotest.test_case "LUD/None store fits in 1 MiB" `Quick test_lud_store_size;
          Alcotest.test_case "LUD/None records stay lean" `Quick
            test_lud_records_stay_lean;
          Alcotest.test_case "encoding allocates little" `Quick
            test_encoder_allocates_little;
          Alcotest.test_case "synthetic record round-trips" `Quick
            test_synthetic_roundtrip;
          Alcotest.test_case "truncation raises only Corrupt" `Quick
            test_truncation_raises_only_corrupt;
          QCheck_alcotest.to_alcotest prop_flipped_bytes_raise_only_corrupt;
          Alcotest.test_case "a pilot off its class is refused" `Quick
            test_foreign_pilot_is_refused;
          Alcotest.test_case "huge count is refused" `Quick
            test_huge_count_is_refused;
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
