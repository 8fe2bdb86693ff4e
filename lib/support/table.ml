type align = Left | Right | Center

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ?title cols =
  { title; headers = List.map fst cols; aligns = List.map snd cols; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s
    | Center ->
      let l = (width - n) / 2 in
      String.make l ' ' ^ s ^ String.make (width - n - l) ' '

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)))
    rows;
  let rule =
    "+"
    ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let line cells =
    let padded =
      List.mapi (fun i c -> " " ^ pad (List.nth t.aligns i) widths.(i) c ^ " ") cells
    in
    "|" ^ String.concat "|" padded ^ "|"
  in
  let buf = Buffer.create 256 in
  (match t.title with
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun cs ->
      Buffer.add_string buf (line cs);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf rule;
  Buffer.contents buf

let print t = print_endline (render t)
