module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry
module Persist = Fastflip.Persist
module Store = Fastflip.Store

let m_connections = Telemetry.counter "serve.connections"
let m_malformed = Telemetry.counter "serve.malformed"

let load_store ~strict path =
  match Persist.open_store ~strict ~path with
  | Error refusal -> failwith refusal
  | Ok (loaded, warning) -> (
    Option.iter (Printf.eprintf "%s\n%!") warning;
    match loaded with
    | Some store ->
      Printf.eprintf "loaded %d section records from %s\n%!" (Store.size store) path;
      store
    | None -> Store.create ())

(* One request/response exchange at a time per connection; the protocol
   has no pipelining. Any transport or decode violation drops only this
   connection. Requests are read into the connection's one receiver and
   answered in place, so a warm hit allocates nothing that outlives the
   minor heap. *)
let handle_connection engine ~shutdown fd =
  let rx = Protocol.receiver fd in
  let rec loop () =
    match Protocol.recv_view rx with
    | Ok req ->
      let resp = Engine.handle_view engine req in
      let sent = try Protocol.send_response fd resp; true with _ -> false in
      (match req with
      | Protocol.Shutdown -> Atomic.set shutdown true
      | _ -> ());
      (match resp with
      | Protocol.Bye -> ()
      | _ -> if sent && not (Atomic.get shutdown) then loop ())
    | Error `Closed -> ()
    | Error (`Malformed msg) ->
      Telemetry.incr m_malformed;
      (try Protocol.send_response fd (Protocol.Error ("malformed request: " ^ msg))
       with _ -> ())
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with _ -> ())

let run ~socket ?store_path ?(strict_store = false) ?save_every ?(pool = Pool.serial)
    () =
  let store =
    match store_path with
    | Some path -> load_store ~strict:strict_store path
    | None -> Store.create ()
  in
  let engine = Engine.create ~store ~pool () in
  if Sys.file_exists socket then Unix.unlink socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 64;
  let shutdown = Atomic.make false in
  let stop _ = Atomic.set shutdown true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop) in
  (* A client that disconnects mid-response must not kill the daemon. *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let active = Atomic.make 0 in
  (* Periodic background checkpoint: a long-lived daemon should not keep
     hours of campaign results only in memory. Each tick appends the
     records published since the last save — O(dirty). *)
  let saver =
    match (store_path, save_every) with
    | Some path, Some every when every > 0.0 ->
      Some
        (Thread.create
           (fun () ->
             let last = ref (Unix.gettimeofday ()) in
             while not (Atomic.get shutdown) do
               Thread.delay 0.1;
               if (not (Atomic.get shutdown)) && Unix.gettimeofday () -. !last >= every
               then begin
                 last := Unix.gettimeofday ();
                 match Engine.save engine ~path with
                 | stats ->
                   if stats.Persist.sv_appended > 0 then
                     Printf.eprintf "checkpointed %d section record(s) to %s\n%!"
                       stats.Persist.sv_appended path
                 | exception e ->
                   Printf.eprintf "warning: periodic store save failed: %s\n%!"
                     (Printexc.to_string e)
               end
             done)
           ())
    | _ -> None
  in
  Printf.printf "fastflip: serving on %s (%d domains)\n%!" socket (Pool.domains pool);
  let rec accept_loop () =
    if not (Atomic.get shutdown) then begin
      (* Poll with a short select timeout so a signal-set shutdown flag is
         noticed even when no connection ever arrives. *)
      (match Unix.select [ listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept listen_fd with
        | conn, _ ->
          Telemetry.incr m_connections;
          Atomic.incr active;
          ignore
            (Thread.create
               (fun () ->
                 Fun.protect
                   ~finally:(fun () -> Atomic.decr active)
                   (fun () -> handle_connection engine ~shutdown conn))
               ())
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
          -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Bounded drain: let in-flight requests finish before saving the store. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get active > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (match saver with Some thread -> Thread.join thread | None -> ());
  (match store_path with
  | Some path ->
    let stats = Engine.save engine ~path in
    Printf.eprintf "saved %d section records to %s\n%!" stats.Persist.sv_live path
  | None -> ());
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  Sys.set_signal Sys.sigpipe prev_pipe;
  Printf.printf "fastflip: served, shut down cleanly\n%!"
