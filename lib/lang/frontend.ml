type error = {
  stage : string;
  loc : Loc.t option;
  message : string;
}

let pp_error fmt { stage; loc; message } =
  match loc with
  | Some l -> Format.fprintf fmt "%s error at %a: %s" stage Loc.pp l message
  | None -> Format.fprintf fmt "%s error: %s" stage message

let compile ?(optimize = true) src =
  Ff_support.Telemetry.span "frontend.compile" @@ fun () ->
  match Parser.parse src with
  | Error { Parser.loc; message } -> Error { stage = "parse"; loc = Some loc; message }
  | Ok ast -> (
    match Typecheck.check ast with
    | Error { Typecheck.loc; message } ->
      Error { stage = "typecheck"; loc = Some loc; message }
    | Ok () ->
      let program = Lower.lower ast in
      let program =
        if optimize then
          {
            program with
            Ff_ir.Program.kernels = List.map Opt.optimize program.Ff_ir.Program.kernels;
          }
        else program
      in
      (match Ff_ir.Program.validate program with
      | Ok () -> Ok program
      | Error { Ff_ir.Program.context; message } ->
        Error
          {
            stage = "validate";
            loc = None;
            message = Printf.sprintf "%s: %s" context message;
          }))

let compile_exn ?optimize src =
  match compile ?optimize src with
  | Ok program -> program
  | Error e -> failwith (Format.asprintf "%a" pp_error e)
