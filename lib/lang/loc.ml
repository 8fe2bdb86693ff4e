type t = {
  line : int;
  col : int;
}

let pp fmt t = Format.fprintf fmt "%d:%d" t.line t.col
