type error = {
  line : int;
  message : string;
}

let pp_error fmt { line; message } = Format.fprintf fmt "line %d: %s" line message

exception Asm_error of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Asm_error { line; message })) fmt

let print_kernel k = Format.asprintf "%a" Kernel.pp k

(* --- tiny line scanner ------------------------------------------------------ *)

type scanner = {
  text : string;
  mutable pos : int;
  line : int;
}

let strip_comment s =
  match String.index_opt s ';' with
  | Some i -> String.sub s 0 i
  | None -> s

let peek_char sc = if sc.pos < String.length sc.text then Some sc.text.[sc.pos] else None

let skip_ws sc =
  while (match peek_char sc with Some (' ' | '\t') -> true | _ -> false) do
    sc.pos <- sc.pos + 1
  done

let at_end sc =
  skip_ws sc;
  sc.pos >= String.length sc.text

let expect sc lit =
  skip_ws sc;
  let n = String.length lit in
  if sc.pos + n <= String.length sc.text && String.equal (String.sub sc.text sc.pos n) lit
  then sc.pos <- sc.pos + n
  else fail sc.line "expected %S in %S" lit sc.text

let accept sc lit =
  skip_ws sc;
  let n = String.length lit in
  if sc.pos + n <= String.length sc.text && String.equal (String.sub sc.text sc.pos n) lit
  then begin
    sc.pos <- sc.pos + n;
    true
  end
  else false

let scan_while sc pred =
  skip_ws sc;
  let start = sc.pos in
  while (match peek_char sc with Some c -> pred c | None -> false) do
    sc.pos <- sc.pos + 1
  done;
  if sc.pos = start then fail sc.line "unexpected token in %S" sc.text;
  String.sub sc.text start (sc.pos - start)

let is_digit c = c >= '0' && c <= '9'

let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

let is_number_char c =
  is_digit c || c = '-' || c = '+' || c = '.' || c = 'x' || c = 'X' || c = 'p' || c = 'P'
  || (c >= 'a' && c <= 'f')
  || (c >= 'A' && c <= 'F')
  || c = 'n' || c = 'i' || c = 't' || c = 'y' (* nan, infinity *)
  || c = ':' (* nan:0xBITS *)

let scan_int sc =
  let s = scan_while sc (fun c -> is_digit c || c = '-') in
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail sc.line "invalid integer %S" s

let scan_int64 sc =
  let s = scan_while sc (fun c -> is_digit c || c = '-') in
  match Int64.of_string_opt s with
  | Some v -> v
  | None -> fail sc.line "invalid integer %S" s

(* Finite values and infinities in [%h] form; a NaN as [nan:0xBITS], its
   full bit pattern (see [Instr.pp]). *)
let scan_float sc =
  let s = scan_while sc is_number_char in
  let parsed =
    match String.split_on_char ':' s with
    | [ "nan"; bits ] -> (
      match Option.map Int64.float_of_bits (Int64.of_string_opt bits) with
      | Some v when Float.is_nan v -> Some v
      | Some _ | None -> None)
    | [ _ ] -> float_of_string_opt s
    | _ -> None
  in
  match parsed with
  | Some v -> v
  | None -> fail sc.line "invalid float %S" s

let scan_reg sc =
  expect sc "r";
  scan_int sc

let scan_label sc =
  expect sc "L";
  scan_int sc

let scan_buf sc =
  expect sc "b";
  scan_int sc

(* --- header ------------------------------------------------------------------ *)

let parse_ty sc =
  if accept sc "int" then Value.TInt
  else if accept sc "float" then Value.TFloat
  else fail sc.line "expected a type"

let parse_param sc =
  let role =
    if accept sc "inout " then Some Kernel.InOut
    else if accept sc "in " then Some Kernel.In
    else if accept sc "out " then Some Kernel.Out
    else None
  in
  let name = scan_while sc is_ident in
  expect sc ":";
  let ty = parse_ty sc in
  match role with
  | Some role ->
    expect sc "[";
    expect sc "]";
    Kernel.Buffer (name, ty, role)
  | None -> Kernel.Scalar (name, ty)

let parse_header line_no raw =
  (* "kernel NAME(p, p, ...)" with an optional "; N regs" comment *)
  let nregs_hint =
    match String.index_opt raw ';' with
    | None -> None
    | Some i ->
      let comment = String.sub raw (i + 1) (String.length raw - i - 1) in
      (try Scanf.sscanf (String.trim comment) "%d regs" (fun n -> Some n)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  in
  let sc = { text = strip_comment raw; pos = 0; line = line_no } in
  expect sc "kernel";
  let name = scan_while sc is_ident in
  expect sc "(";
  let params = ref [] in
  if not (accept sc ")") then begin
    let continue = ref true in
    while !continue do
      params := parse_param sc :: !params;
      if accept sc ")" then continue := false else expect sc ","
    done
  end;
  (name, List.rev !params, nregs_hint)

(* --- instructions -------------------------------------------------------------- *)

let ibinops =
  [
    ("add", Instr.Iadd); ("sub", Instr.Isub); ("mul", Instr.Imul); ("div", Instr.Idiv);
    ("rem", Instr.Irem); ("and", Instr.Iand); ("or", Instr.Ior); ("xor", Instr.Ixor);
    ("shl", Instr.Ishl); ("lshr", Instr.Ilshr); ("ashr", Instr.Iashr);
    ("rotl", Instr.Irotl); ("rotr", Instr.Irotr); ("imin", Instr.Imin);
    ("imax", Instr.Imax);
  ]

let fbinops =
  [
    ("fadd", Instr.Fadd); ("fsub", Instr.Fsub); ("fmul", Instr.Fmul);
    ("fdiv", Instr.Fdiv); ("fmin", Instr.Fmin); ("fmax", Instr.Fmax);
    ("fpow", Instr.Fpow);
  ]

let funops =
  [
    ("fneg", Instr.FFneg); ("fabs", Instr.FFabs); ("fsqrt", Instr.FFsqrt);
    ("fexp", Instr.FFexp); ("flog", Instr.FFlog); ("fsin", Instr.FFsin);
    ("fcos", Instr.FFcos); ("ffloor", Instr.FFfloor); ("fceil", Instr.FFceil);
  ]

let casts =
  [ ("itof", Instr.Itof); ("ftoi", Instr.Ftoi); ("fbits", Instr.Fbits);
    ("bitsf", Instr.Bitsf) ]

let cmps =
  [ ("eq", Instr.Ceq); ("ne", Instr.Cne); ("lt", Instr.Clt); ("le", Instr.Cle);
    ("gt", Instr.Cgt); ("ge", Instr.Cge) ]

let parse_instruction line_no index raw =
  let sc = { text = strip_comment raw; pos = 0; line = line_no } in
  (* optional "N:" index prefix *)
  skip_ws sc;
  (match peek_char sc with
  | Some c when is_digit c ->
    let i = scan_int sc in
    expect sc ":";
    if i <> index then fail line_no "instruction index %d but position %d" i index
  | _ -> ());
  skip_ws sc;
  let instr =
    if accept sc "halt" then Instr.Halt
    else if accept sc "jmp" then Instr.Jmp (scan_label sc)
    else if accept sc "br" then begin
      let c = scan_reg sc in
      expect sc ",";
      let l1 = scan_label sc in
      expect sc ",";
      let l2 = scan_label sc in
      Instr.Br (c, l1, l2)
    end
    else if accept sc "store" then begin
      let b = scan_buf sc in
      expect sc "[";
      let i = scan_reg sc in
      expect sc "]";
      expect sc "<-";
      let v = scan_reg sc in
      Instr.Store (b, i, v)
    end
    else begin
      let d = scan_reg sc in
      expect sc "<-";
      let op = scan_while sc (fun c -> is_ident c || c = '.') in
      let two_regs mk =
        let a = scan_reg sc in
        expect sc ",";
        let b = scan_reg sc in
        mk a b
      in
      match op with
      | "mov" -> Instr.Mov (d, scan_reg sc)
      | "iconst" -> Instr.Iconst (d, scan_int64 sc)
      | "fconst" -> Instr.Fconst (d, scan_float sc)
      | "select" ->
        let c = scan_reg sc in
        expect sc ",";
        let a = scan_reg sc in
        expect sc ",";
        let b = scan_reg sc in
        Instr.Select (d, c, a, b)
      | "load" ->
        let b = scan_buf sc in
        expect sc "[";
        let i = scan_reg sc in
        expect sc "]";
        Instr.Load (d, b, i)
      | "neg" -> Instr.Iun (Instr.Ineg, d, scan_reg sc)
      | "not" -> Instr.Iun (Instr.Inot, d, scan_reg sc)
      | _ -> (
        match List.assoc_opt op ibinops with
        | Some o -> two_regs (fun a b -> Instr.Ibin (o, d, a, b))
        | None -> (
          match List.assoc_opt op fbinops with
          | Some o -> two_regs (fun a b -> Instr.Fbin (o, d, a, b))
          | None -> (
            match List.assoc_opt op funops with
            | Some o -> Instr.Fun1 (o, d, scan_reg sc)
            | None -> (
              match List.assoc_opt op casts with
              | Some o -> Instr.Cast (o, d, scan_reg sc)
              | None -> (
                match String.index_opt op '.' with
                | Some dot -> (
                  let base = String.sub op 0 dot in
                  let cond = String.sub op (dot + 1) (String.length op - dot - 1) in
                  match (base, List.assoc_opt cond cmps) with
                  | "icmp", Some c -> two_regs (fun a b -> Instr.Icmp (c, d, a, b))
                  | "fcmp", Some c -> two_regs (fun a b -> Instr.Fcmp (c, d, a, b))
                  | _ -> fail line_no "unknown opcode %S" op)
                | None -> fail line_no "unknown opcode %S" op)))))
    end
  in
  if not (at_end sc) then
    fail line_no "trailing tokens in %S" raw;
  instr

let parse_kernel text =
  try
    let lines =
      String.split_on_char '\n' text
      |> List.mapi (fun i l -> (i + 1, l))
      |> List.filter (fun (_, l) -> String.trim (strip_comment l) <> "")
    in
    match lines with
    | [] -> Error { line = 1; message = "empty kernel listing" }
    | (header_line, header) :: body ->
      let name, params, nregs_hint = parse_header header_line header in
      let code =
        List.mapi (fun index (line_no, raw) -> parse_instruction line_no index raw) body
        |> Array.of_list
      in
      let max_reg =
        Array.fold_left
          (fun acc instr ->
            List.fold_left max acc
              ((match Instr.dst instr with Some d -> [ d ] | None -> [])
              @ Instr.srcs instr))
          (-1) code
      in
      let nregs =
        match nregs_hint with Some n -> n | None -> max 1 (max_reg + 1)
      in
      let kernel = { Kernel.name; params; code; nregs } in
      (match Kernel.validate kernel with
      | Ok () -> Ok kernel
      | Error { Kernel.instr_index; message } ->
        Error
          {
            line = (match instr_index with Some i -> i + 2 | None -> 1);
            message = "invalid kernel: " ^ message;
          })
  with Asm_error e -> Error e
