type ty = Tint | Tfloat

type unop =
  | Neg
  | LogNot
  | BitNot

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | LogAnd | LogOr
  | BitAnd | BitOr | BitXor
  | Shl
  | Shr

type expr = {
  e : expr_kind;
  eloc : Loc.t;
}

and expr_kind =
  | Int_lit of int64
  | Float_lit of float
  | Var of string
  | Index of string * expr
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list

type stmt = {
  s : stmt_kind;
  sloc : Loc.t;
}

and stmt_kind =
  | Decl of string * ty * expr
  | Assign of string * expr
  | Store of string * expr * expr
  | If of expr * block * block
  | While of expr * block
  | For of string * expr * expr * block

and block = stmt list

type mode = Min | Mout | Minout

type param =
  | Pscalar of string * ty
  | Pbuffer of string * ty * mode

type kernel = {
  kname : string;
  kparams : param list;
  kbody : block;
  kloc : Loc.t;
}

type value_lit = Ilit of int64 | Flit of float

type buffer_init =
  | Zeros
  | Values of value_lit list

type buffer_decl = {
  bname : string;
  bty : ty;
  bsize : int;
  binit : buffer_init;
  bis_output : bool;
  bloc : Loc.t;
}

type sched_item =
  | Scall of {
      sc_kernel : string;
      sc_args : expr list;
      sc_loc : Loc.t;
    }
  | Sfor of {
      sf_var : string;
      sf_lo : expr;
      sf_hi : expr;
      sf_body : sched_item list;
      sf_loc : Loc.t;
    }

type program = {
  buffers : buffer_decl list;
  kernels : kernel list;
  schedule : sched_item list;
}

let builtins =
  [
    ("sqrt", [ Tfloat ], Tfloat);
    ("exp", [ Tfloat ], Tfloat);
    ("log", [ Tfloat ], Tfloat);
    ("sin", [ Tfloat ], Tfloat);
    ("cos", [ Tfloat ], Tfloat);
    ("fabs", [ Tfloat ], Tfloat);
    ("floor", [ Tfloat ], Tfloat);
    ("ceil", [ Tfloat ], Tfloat);
    ("pow", [ Tfloat; Tfloat ], Tfloat);
    ("fmin", [ Tfloat; Tfloat ], Tfloat);
    ("fmax", [ Tfloat; Tfloat ], Tfloat);
    ("imin", [ Tint; Tint ], Tint);
    ("imax", [ Tint; Tint ], Tint);
    ("rotl", [ Tint; Tint ], Tint);
    ("rotr", [ Tint; Tint ], Tint);
    ("lshr", [ Tint; Tint ], Tint);
    ("float_of_int", [ Tint ], Tfloat);
    ("int_of_float", [ Tfloat ], Tint);
    ("bits_of_float", [ Tfloat ], Tint);
    ("float_of_bits", [ Tint ], Tfloat);
  ]

let unop_symbol = function Neg -> "-" | LogNot -> "!" | BitNot -> "~"

let binop_symbol = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | LogAnd -> "&&" | LogOr -> "||"
  | BitAnd -> "&" | BitOr -> "|" | BitXor -> "^"
  | Shl -> "<<" | Shr -> ">>"

let rec pp_expr fmt expr =
  match expr.e with
  | Int_lit v -> Format.fprintf fmt "%Ld" v
  | Float_lit v -> Format.fprintf fmt "%g" v
  | Var x -> Format.pp_print_string fmt x
  | Index (b, i) -> Format.fprintf fmt "%s[%a]" b pp_expr i
  | Unary (op, a) -> Format.fprintf fmt "(%s%a)" (unop_symbol op) pp_expr a
  | Binary (op, a, b) ->
    Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_symbol op) pp_expr b
  | Call (f, args) ->
    Format.fprintf fmt "%s(%a)" f
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_expr)
      args
