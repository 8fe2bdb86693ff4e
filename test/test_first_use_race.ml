(* First-use races on process-wide memos, in a fresh process: the CRC-32
   table and the benchmarks' Large-version sources are first touched here
   by several domains released together. A [lazy] in either place raises
   [CamlinternalLazy.Undefined] in the losing domains. This must stay its
   own executable: any earlier use in the same process hides the race. *)

module Hashing = Ff_support.Hashing
module Registry = Ff_benchmarks.Registry
module Defs = Ff_benchmarks.Defs

let domains = 6

(* Run [f] on [domains] domains that spin until all have started, so the
   calls overlap as closely as the scheduler allows. *)
let together f =
  let ready = Atomic.make 0 in
  let spawn _ =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < domains do
          Domain.cpu_relax ()
        done;
        f ())
  in
  List.map Domain.join (List.init domains spawn)

let test_first_crc () =
  let results = together (fun () -> Hashing.crc32 "123456789") in
  List.iter (Alcotest.(check int) "CRC-32 check value" 0xCBF43926) results

let test_first_large_source () =
  let bench = List.hd Registry.all in
  let results = together (fun () -> bench.Defs.source Defs.V_large) in
  let first = List.hd results in
  List.iter (Alcotest.(check string) "one source for every domain" first) results

let () =
  Alcotest.run "first-use race"
    [
      ( "domains",
        [
          Alcotest.test_case "first CRC from several domains" `Quick test_first_crc;
          Alcotest.test_case "first Large source from several domains" `Quick
            test_first_large_source;
        ] );
    ]
