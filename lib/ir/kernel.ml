module Hashing = Ff_support.Hashing

type role = In | Out | InOut

type param =
  | Scalar of string * Value.scalar_ty
  | Buffer of string * Value.scalar_ty * role

type t = {
  name : string;
  params : param list;
  code : Instr.t array;
  nregs : int;
}

let scalar_params t =
  List.filter_map (function Scalar (n, ty) -> Some (n, ty) | Buffer _ -> None) t.params

let buffer_params t =
  List.filter_map
    (function Buffer (n, ty, r) -> Some (n, ty, r) | Scalar _ -> None)
    t.params

let role_writable = function Out | InOut -> true | In -> false
let role_readable = function In | InOut -> true | Out -> false

type validation_error = {
  instr_index : int option;
  message : string;
}

let error ?index message = Error { instr_index = index; message }

let shape_error t =
  let n = Array.length t.code in
  let some ?index message = Some { instr_index = index; message } in
  if n = 0 then some "kernel has no code"
  else if List.length (scalar_params t) > t.nregs then
    some "scalar parameters exceed register count"
  else if not (Instr.is_terminator t.code.(n - 1)) then
    some ~index:(n - 1) "kernel does not end with a terminator"
  else None

let instr_error t =
  let n = Array.length t.code in
  let nbufs = List.length (buffer_params t) in
  let bad_reg r = r < 0 || r >= t.nregs in
  fun instr ->
    if Option.fold ~none:false ~some:bad_reg (Instr.dst instr)
       || List.exists bad_reg (Instr.srcs instr)
    then Some "register out of range"
    else if List.exists (fun l -> l < 0 || l >= n) (Instr.labels instr) then
      Some "label out of range"
    else
      match instr with
      | Instr.Load (_, b, _) | Instr.Store (b, _, _) when b < 0 || b >= nbufs ->
        Some "buffer slot out of range"
      | _ -> None

let validate t =
  match shape_error t with
  | Some e -> Error e
  | None ->
    let roles = Array.of_list (List.map (fun (_, _, r) -> r) (buffer_params t)) in
    let instr_error = instr_error t in
    let rec check i =
      if i >= Array.length t.code then Ok ()
      else
        let instr = t.code.(i) in
        match (instr_error instr, instr) with
        | Some message, _ -> error ~index:i message
        | None, Instr.Store (b, _, _) when not (role_writable roles.(b)) ->
          error ~index:i "store to read-only (In) buffer"
        | None, _ -> check (i + 1)
    in
    check 0

let param_hash_fold h = function
  | Scalar (n, ty) ->
    Hashing.add_int h 1;
    Hashing.add_string h n;
    Hashing.add_int h (match ty with Value.TInt -> 0 | Value.TFloat -> 1)
  | Buffer (n, ty, r) ->
    Hashing.add_int h 2;
    Hashing.add_string h n;
    Hashing.add_int h (match ty with Value.TInt -> 0 | Value.TFloat -> 1);
    Hashing.add_int h (match r with In -> 0 | Out -> 1 | InOut -> 2)

let code_hash t =
  let h = Hashing.create () in
  Hashing.add_string h t.name;
  Hashing.add_int h t.nregs;
  List.iter (param_hash_fold h) t.params;
  Array.iter (Instr.hash_fold h) t.code;
  Hashing.value h

let pp_role fmt = function
  | In -> Format.pp_print_string fmt "in"
  | Out -> Format.pp_print_string fmt "out"
  | InOut -> Format.pp_print_string fmt "inout"

let pp_param fmt = function
  | Scalar (n, ty) -> Format.fprintf fmt "%s: %a" n Value.pp_ty ty
  | Buffer (n, ty, r) -> Format.fprintf fmt "%a %s: %a[]" pp_role r n Value.pp_ty ty

let pp fmt t =
  Format.fprintf fmt "@[<v>kernel %s(%a)  ; %d regs@," t.name
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_param)
    t.params t.nregs;
  Array.iteri (fun i instr -> Format.fprintf fmt "  %3d: %a@," i Instr.pp instr) t.code;
  Format.fprintf fmt "@]"
