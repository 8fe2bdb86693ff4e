(* Simulated mid-campaign kills for the checkpointed-resume tests: a
   journal whose [j_append] raises [Crash] once its [after]-th call has
   returned, i.e. once that batch is durable in the progress log — the
   exact on-disk state a real SIGKILL at that point leaves behind. *)

open Fastflip

exception Crash

let journal_of progress key = Persist.progress_journal progress ~key

let crashing ~after progress =
  let appends = Atomic.make 0 in
  fun key ->
    let j = journal_of progress key in
    {
      j with
      Ff_inject.Campaign.j_append =
        (fun batch ->
          j.Ff_inject.Campaign.j_append batch;
          if Atomic.fetch_and_add appends 1 + 1 >= after then raise Crash);
    }

(* Open the progress log of the store at [path], checkpointing every 2
   classes. *)
let open_progress ~path ~resume =
  match Persist.open_progress ~path ~every:2 ~resume with
  | Ok opened -> opened
  | Error e -> Alcotest.failf "open_progress %s: %s" path e

let cleanup path =
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ path; Persist.progress_path path; Persist.progress_path path ^ ".lock" ]

(* The killed run: a fresh progress log, then a crash right after the
   [after]-th durable batch. *)
let kill ?pool ~after ~path config program =
  let progress, _, _ = open_progress ~path ~resume:false in
  match Pipeline.analyze ?pool ~journal:(crashing ~after progress) config program with
  | _ -> Alcotest.failf "%s: expected the simulated crash" path
  | exception Crash -> ()

(* The resumed run: restore the log, finish the analysis, remove the log
   (as the CLI does after its store save). Returns the analysis and the
   restored and skipped counts. *)
let resume ?pool ~path config program =
  let progress, loaded, skipped = open_progress ~path ~resume:true in
  let analysis = Pipeline.analyze ?pool ~journal:(journal_of progress) config program in
  Persist.remove_progress progress;
  if Sys.file_exists (Persist.progress_path path) then
    Alcotest.failf "%s: progress log not removed" path;
  cleanup path;
  (analysis, loaded, skipped)
