(* Unit and property tests for the support library: deterministic RNG,
   bit manipulation, statistics, hashing, table rendering, and the
   domain work pool. *)

module Rng = Ff_support.Rng
module Bits = Ff_support.Bits
module Stats = Ff_support.Stats
module Hashing = Ff_support.Hashing
module Table = Ff_support.Table
module Pool = Ff_support.Pool

let check_float = Alcotest.(check (float 1e-9))

(* --- rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" false
    (Int64.equal (Rng.int64 a) (Rng.int64 b))

let test_rng_int_bounds () =
  let rng = Rng.create 99L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of bounds: %d" v
  done

let test_rng_int_covers_range () =
  let rng = Rng.create 5L in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all 8 buckets hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of bounds: %f" v
  done

let test_rng_float_signed_bounds () =
  let rng = Rng.create 4L in
  for _ = 1 to 10_000 do
    let v = Rng.float_signed rng 0.01 in
    if v < -0.01 || v > 0.01 then Alcotest.failf "signed float out of bounds: %f" v
  done

let test_rng_split_independent () =
  let parent = Rng.create 11L in
  let child = Rng.split parent in
  (* The child stream must not mirror the parent stream. *)
  let p = List.init 16 (fun _ -> Rng.int64 parent) in
  let c = List.init 16 (fun _ -> Rng.int64 child) in
  Alcotest.(check bool) "split streams differ" false (p = c)

let test_rng_copy_preserves () =
  let a = Rng.create 21L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_bits_mask () =
  let rng = Rng.create 8L in
  for _ = 1 to 1_000 do
    let v = Rng.bits rng 12 in
    if Int64.logand v (Int64.lognot 0xFFFL) <> 0L then
      Alcotest.failf "bits above 12 set: %Ld" v
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13L in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 20 Fun.id) sorted

(* --- bits --------------------------------------------------------------- *)

let test_flip_involution () =
  let w = 0x123456789ABCDEF0L in
  for b = 0 to 63 do
    Alcotest.(check int64)
      (Printf.sprintf "double flip bit %d" b)
      w
      (Bits.flip (Bits.flip w b) b)
  done

let test_flip_changes_exactly_one_bit () =
  let w = 0xDEADBEEFL in
  for b = 0 to 63 do
    Alcotest.(check int) "hamming distance 1" 1 (Bits.hamming w (Bits.flip w b))
  done

let test_test_bit () =
  Alcotest.(check bool) "bit0 of 1" true (Bits.test 1L 0);
  Alcotest.(check bool) "bit1 of 1" false (Bits.test 1L 1);
  Alcotest.(check bool) "bit63 of min_int" true (Bits.test Int64.min_int 63)

let test_float_bits_roundtrip () =
  List.iter
    (fun x ->
      check_float "roundtrip" x (Bits.float_of_bits (Bits.bits_of_float x)))
    [ 0.0; 1.0; -1.5; 3.14159; 1e300; 1e-300 ]

let test_flip_float_sign () =
  (* Bit 63 is the IEEE-754 sign bit. *)
  check_float "sign flip" (-2.5) (Bits.flip_float 2.5 63)

let test_popcount () =
  Alcotest.(check int) "popcount 0" 0 (Bits.popcount 0L);
  Alcotest.(check int) "popcount -1" 64 (Bits.popcount (-1L));
  Alcotest.(check int) "popcount 0xF0" 4 (Bits.popcount 0xF0L)

(* --- stats -------------------------------------------------------------- *)

let test_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean [])

let test_geomean () =
  check_float "geomean of powers" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  check_float "geomean singleton" 7.0 (Stats.geomean [ 7.0 ])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive raises"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_variance_stddev () =
  check_float "variance" 2.0 (Stats.variance [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  check_float "stddev" (sqrt 2.0) (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 4.0 ] in
  check_float "min" (-1.0) lo;
  check_float "max" 4.0 hi

let test_percentile_median () =
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "p100" 9.0 (Stats.percentile 100.0 [ 9.0; 1.0; 5.0 ]);
  check_float "p1 is min" 1.0 (Stats.percentile 1.0 [ 9.0; 1.0; 5.0 ])

let test_summarize () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check int) "count" 3 s.Stats.count;
  check_float "mean" 2.0 s.Stats.mean;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 3.0 s.Stats.max

(* --- hashing ------------------------------------------------------------ *)

let test_hash_deterministic () =
  Alcotest.(check int64) "equal strings hash equal" (Hashing.of_string "fastflip")
    (Hashing.of_string "fastflip")

let test_hash_discriminates () =
  Alcotest.(check bool) "different strings differ" false
    (Int64.equal (Hashing.of_string "a") (Hashing.of_string "b"))

let test_hash_length_prefix () =
  (* add_string includes the length, so "ab"+"c" differs from "a"+"bc". *)
  let h1 = Hashing.create () in
  Hashing.add_string h1 "ab";
  Hashing.add_string h1 "c";
  let h2 = Hashing.create () in
  Hashing.add_string h2 "a";
  Hashing.add_string h2 "bc";
  Alcotest.(check bool) "no concatenation collision" false
    (Int64.equal (Hashing.value h1) (Hashing.value h2))

let test_hash_float_vs_int () =
  let h1 = Hashing.create () in
  Hashing.add_float h1 1.0;
  let h2 = Hashing.create () in
  Hashing.add_int64 h2 (Int64.bits_of_float 1.0);
  (* Same bytes feed the same digest: floats hash by representation. *)
  Alcotest.(check int64) "float hashes by bits" (Hashing.value h1) (Hashing.value h2)

let test_hash_combine_order () =
  Alcotest.(check bool) "combine is order-dependent" false
    (Int64.equal (Hashing.combine 1L 2L) (Hashing.combine 2L 1L))

let test_crc32_known_vectors () =
  (* IEEE 802.3 check values. *)
  Alcotest.(check int) "empty" 0 (Hashing.crc32 "");
  Alcotest.(check int) "123456789" 0xCBF43926 (Hashing.crc32 "123456789");
  Alcotest.(check int) "slice matches substring" (Hashing.crc32 "3456")
    (Hashing.crc32 ~pos:2 ~len:4 "123456789")

let test_crc32_detects_flips () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let base = Hashing.crc32 s in
  for i = 0 to String.length s - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
      if Hashing.crc32 (Bytes.to_string b) = base then
        Alcotest.failf "flip at byte %d bit %d undetected" i bit
    done
  done

(* The FNV-1a definition, one byte at a time: the streaming hasher must
   give exactly these digests (store keys are built from them). *)
let reference_fnv bytes =
  List.fold_left
    (fun acc b -> Int64.mul (Int64.logxor acc (Int64.of_int b)) 0x100000001B3L)
    0xCBF29CE484222325L bytes

let le_bytes v = List.init 8 (fun i -> Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
let string_bytes s = List.init (String.length s) (fun i -> Char.code s.[i])

type feed =
  | Int64 of int64
  | Float of float
  | Slice of string * int * int * bool
      (* pos and len within bounds; true feeds a copy via add_string *)

let feed_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Int64 v) ui64;
        map (fun v -> Float v) float;
        (string_size (int_range 0 300) >>= fun s ->
         int_range 0 (String.length s) >>= fun pos ->
         int_range 0 (String.length s - pos) >>= fun len ->
         bool >|= fun copy -> Slice (s, pos, len, copy));
      ])

let fnv_reference_property =
  QCheck.Test.make ~count:300 ~name:"streaming FNV ≡ byte-at-a-time FNV"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 6) feed_gen))
    (fun feeds ->
      let h = Hashing.create () in
      let bytes =
        List.concat_map
          (function
            | Int64 v ->
              Hashing.add_int64 h v;
              le_bytes v
            | Float v ->
              Hashing.add_float h v;
              le_bytes (Int64.bits_of_float v)
            | Slice (s, pos, len, copy) ->
              if copy then Hashing.add_string h (String.sub s pos len)
              else Hashing.add_substring h s pos len;
              le_bytes (Int64.of_int len) @ string_bytes (String.sub s pos len))
          feeds
      in
      Int64.equal (Hashing.value h) (reference_fnv bytes))

let crc32_continues_property =
  QCheck.Test.make ~count:300 ~name:"crc32 ~init:(crc32 a) b = crc32 (a ^ b)"
    QCheck.(pair string string)
    (fun (a, b) -> Hashing.crc32 ~init:(Hashing.crc32 a) b = Hashing.crc32 (a ^ b))

let test_crc32_rejects_bad_slice () =
  Alcotest.check_raises "len past end"
    (Invalid_argument "Hashing.crc32") (fun () ->
      ignore (Hashing.crc32 ~pos:4 ~len:2 "12345"))

(* --- table -------------------------------------------------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.equal (String.sub haystack i nl) needle || go (i + 1)) in
  nl = 0 || go 0

let test_table_renders_all_cells () =
  let t = Table.create [ ("A", Table.Left); ("B", Table.Right) ] in
  Table.add_row t [ "x"; "42" ];
  Table.add_row t [ "yy"; "7" ];
  let s = Table.render t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "A"; "B"; "x"; "42"; "yy"; "7" ]

let test_table_arity_check () =
  let t = Table.create [ ("A", Table.Left) ] in
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "a"; "b" ])

let test_table_alignment () =
  let t = Table.create [ ("col", Table.Right) ] in
  Table.add_row t [ "1" ];
  Table.add_row t [ "1000" ];
  let s = Table.render t in
  Alcotest.(check bool) "right aligned" true (contains s "|    1 |")

(* --- pool --------------------------------------------------------------- *)

let test_pool_matches_array_map_under_chunkings () =
  Pool.with_pool ~domains:4 (fun pool ->
      let n = 100 in
      let arr = Array.init n (fun i -> i) in
      let f x = (x * 37) + (x mod 5) in
      let expected = Array.map f arr in
      (* Adversarial chunk sizes: 1, n-1, n, > n, and the default. *)
      List.iter
        (fun chunk ->
          let got =
            match chunk with
            | Some c -> Pool.map_array ~chunk:c pool f arr
            | None -> Pool.map_array pool f arr
          in
          Alcotest.(check (array int))
            (Printf.sprintf "chunk %s"
               (match chunk with Some c -> string_of_int c | None -> "default"))
            expected got)
        [ Some 1; Some (n - 1); Some n; Some (n + 13); None ])

let test_pool_empty_and_singleton () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map_array pool (fun x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 42 |]
        (Pool.map_array pool (fun x -> x * 2) [| 21 |]))

let test_pool_serial_fallback () =
  (* The shared width-1 pool spawns no domains and is exactly Array.map. *)
  Alcotest.(check int) "serial width" 1 (Pool.domains Pool.serial);
  Alcotest.(check (array int)) "serial map" [| 2; 4; 6 |]
    (Pool.map_array Pool.serial (fun x -> 2 * x) [| 1; 2; 3 |])

exception Boom of int

let test_pool_exception_propagates () =
  Pool.with_pool ~domains:4 (fun pool ->
      let arr = Array.init 64 Fun.id in
      (match Pool.map_array ~chunk:1 pool (fun x -> if x = 50 then raise (Boom x) else x) arr with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom 50 -> ());
      (* The pool survives a failed map and keeps producing correct results. *)
      Alcotest.(check (array int)) "pool still works" (Array.map succ arr)
        (Pool.map_array pool succ arr))

let test_pool_reentrant_degrades_to_serial () =
  (* A nested map on the busy pool must complete correctly (documented to
     run serially on the calling domain). *)
  Pool.with_pool ~domains:2 (fun pool ->
      let outer = Array.init 8 Fun.id in
      let expected = Array.map (fun i -> 10 * i) outer in
      let got =
        Pool.map_array pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map_array pool (fun j -> if j = i then 10 * i else 0) outer))
          outer
      in
      Alcotest.(check (array int)) "nested map correct" expected got)

let test_pool_rejects_bad_arguments () =
  Alcotest.check_raises "chunk 0" (Invalid_argument "Pool.map_array: chunk must be positive")
    (fun () -> ignore (Pool.map_array ~chunk:0 Pool.serial Fun.id [| 1 |]));
  Alcotest.check_raises "domains 0" (Invalid_argument "Pool.create: domains must be in [1, 128]")
    (fun () -> ignore (Pool.create ~domains:0))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:3 in
  Alcotest.(check (array int)) "before shutdown" [| 1; 2; 3 |]
    (Pool.map_array pool Fun.id [| 1; 2; 3 |]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* After shutdown, maps fall back to serial execution. *)
  Alcotest.(check (array int)) "after shutdown" [| 2; 3; 4 |]
    (Pool.map_array pool succ [| 1; 2; 3 |])

let test_pool_parse_domains () =
  let check_ok label s expected =
    match Pool.parse_domains s with
    | Ok n -> Alcotest.(check int) label expected n
    | Error e -> Alcotest.fail (label ^ ": unexpected error " ^ e)
  in
  let check_err label s =
    match Pool.parse_domains s with
    | Ok n -> Alcotest.fail (Printf.sprintf "%s: expected error, got Ok %d" label n)
    | Error e -> Alcotest.(check bool) (label ^ " has message") true (String.length e > 0)
  in
  check_ok "plain" "4" 4;
  check_ok "one" "1" 1;
  check_ok "surrounding whitespace" " 8 " 8;
  check_ok "clamped to 128" "1000" 128;
  check_err "zero" "0";
  check_err "negative" "-2";
  check_err "garbage" "abc";
  check_err "empty" "";
  check_err "trailing junk" "4x"

let test_pool_map_result_quarantines_slot () =
  (* A raising task poisons only its own slot; every other element still
     computes — the whole point of quarantine vs the abort semantics of
     plain [map_array] (tested above, unchanged). *)
  Pool.with_pool ~domains:4 (fun pool ->
      let arr = Array.init 64 Fun.id in
      let results =
        Pool.map_array_result ~chunk:1 ~retries:0 pool
          (fun x -> if x mod 17 = 3 then raise (Boom x) else x * 2)
          arr
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "ok slot" (i * 2) v
          | Error (Boom x) ->
            Alcotest.(check int) "poisoned slot keeps its exception" i x;
            Alcotest.(check int) "only raising inputs quarantined" 3 (x mod 17)
          | Error e -> raise e)
        results;
      (* The pool survives quarantined tasks. *)
      Alcotest.(check (array int)) "pool still works" (Array.map succ arr)
        (Pool.map_array pool succ arr))

let test_pool_map_result_retry_recovers () =
  (* A once-flaky task succeeds on its retry and the slot reports [Ok];
     the retry callback sees each first failure. *)
  Pool.with_pool ~domains:3 (fun pool ->
      let attempts = Array.init 32 (fun _ -> Atomic.make 0) in
      let retried = Atomic.make 0 in
      let results =
        Pool.map_array_result ~retries:1
          ~on_retry:(fun _ -> Atomic.incr retried)
          pool
          (fun x ->
            if Atomic.fetch_and_add attempts.(x) 1 = 0 && x mod 5 = 0 then
              raise (Boom x)
            else x + 100)
          (Array.init 32 Fun.id)
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "recovered" (i + 100) v
          | Error e -> raise e)
        results;
      Alcotest.(check int) "one retry per flaky element" 7 (Atomic.get retried))

let test_pool_map_result_exhausts_retries () =
  (* Persistent failure: retried the configured number of times, then the
     slot is an [Error] carrying the last exception. *)
  let attempts = Atomic.make 0 in
  let results =
    Pool.map_array_result ~retries:2 Pool.serial
      (fun _ ->
        Atomic.incr attempts;
        raise (Boom 7))
      [| () |]
  in
  (match results.(0) with
  | Error (Boom 7) -> ()
  | Error e -> raise e
  | Ok _ -> Alcotest.fail "expected quarantine");
  Alcotest.(check int) "initial attempt + 2 retries" 3 (Atomic.get attempts)

let test_pool_map_result_rejects_negative_retries () =
  Alcotest.check_raises "retries -1"
    (Invalid_argument "Pool.map_array_result: retries must be >= 0") (fun () ->
      ignore (Pool.map_array_result ~retries:(-1) Pool.serial Fun.id [| 1 |]))

let pool_map_property =
  QCheck.Test.make ~count:100 ~name:"Pool.map_array ≡ Array.map"
    QCheck.(pair (list int) (int_range 1 17))
    (fun (xs, chunk) ->
      let arr = Array.of_list xs in
      let f x = (x * 31) lxor 0x55 in
      Pool.with_pool ~domains:3 (fun pool ->
          Pool.map_array ~chunk pool f arr = Array.map f arr))

let () =
  Alcotest.run "support"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "float_signed bounds" `Quick test_rng_float_signed_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy preserves state" `Quick test_rng_copy_preserves;
          Alcotest.test_case "bits mask" `Quick test_rng_bits_mask;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "bits",
        [
          Alcotest.test_case "flip involution" `Quick test_flip_involution;
          Alcotest.test_case "flip hamming 1" `Quick test_flip_changes_exactly_one_bit;
          Alcotest.test_case "test bit" `Quick test_test_bit;
          Alcotest.test_case "float bits roundtrip" `Quick test_float_bits_roundtrip;
          Alcotest.test_case "flip float sign" `Quick test_flip_float_sign;
          Alcotest.test_case "popcount" `Quick test_popcount;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "geomean rejects" `Quick test_geomean_rejects_nonpositive;
          Alcotest.test_case "variance/stddev" `Quick test_variance_stddev;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "percentile/median" `Quick test_percentile_median;
          Alcotest.test_case "summarize" `Quick test_summarize;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "discriminates" `Quick test_hash_discriminates;
          Alcotest.test_case "length prefix" `Quick test_hash_length_prefix;
          Alcotest.test_case "float by bits" `Quick test_hash_float_vs_int;
          Alcotest.test_case "combine order" `Quick test_hash_combine_order;
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_known_vectors;
          Alcotest.test_case "crc32 flip detection" `Quick test_crc32_detects_flips;
          Alcotest.test_case "crc32 slice validation" `Quick test_crc32_rejects_bad_slice;
          QCheck_alcotest.to_alcotest fnv_reference_property;
          QCheck_alcotest.to_alcotest crc32_continues_property;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders all cells" `Quick test_table_renders_all_cells;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordering under chunkings" `Quick
            test_pool_matches_array_map_under_chunkings;
          Alcotest.test_case "empty and singleton" `Quick test_pool_empty_and_singleton;
          Alcotest.test_case "serial fallback" `Quick test_pool_serial_fallback;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagates;
          Alcotest.test_case "reentrancy is serial" `Quick
            test_pool_reentrant_degrades_to_serial;
          Alcotest.test_case "argument validation" `Quick test_pool_rejects_bad_arguments;
          Alcotest.test_case "FF_DOMAINS parsing" `Quick test_pool_parse_domains;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "quarantine poisons one slot" `Quick
            test_pool_map_result_quarantines_slot;
          Alcotest.test_case "quarantine retry recovers" `Quick
            test_pool_map_result_retry_recovers;
          Alcotest.test_case "quarantine exhausts retries" `Quick
            test_pool_map_result_exhausts_retries;
          Alcotest.test_case "quarantine argument validation" `Quick
            test_pool_map_result_rejects_negative_retries;
          QCheck_alcotest.to_alcotest pool_map_property;
        ] );
    ]
