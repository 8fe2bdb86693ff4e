(** Abstract syntax of the kernel language.

    A source file declares global buffers, kernels (the bodies of program
    sections), and a schedule (the sequence of section calls, with
    compile-time-unrolled [for] loops). *)

type ty = Tint | Tfloat

type unop =
  | Neg
  | LogNot  (** [!e]: 1 if e = 0 else 0 *)
  | BitNot

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | LogAnd | LogOr  (** non-short-circuit: both operands evaluate *)
  | BitAnd | BitOr | BitXor
  | Shl
  | Shr  (** arithmetic shift right; use the [lshr] builtin for logical *)

type expr = {
  e : expr_kind;
  eloc : Loc.t;
}

and expr_kind =
  | Int_lit of int64
  | Float_lit of float
  | Var of string
  | Index of string * expr          (** [buf\[e\]] *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list      (** builtin functions only *)

type stmt = {
  s : stmt_kind;
  sloc : Loc.t;
}

and stmt_kind =
  | Decl of string * ty * expr      (** [var x: ty = e;] *)
  | Assign of string * expr
  | Store of string * expr * expr   (** [buf\[i\] = e;] *)
  | If of expr * block * block
  | While of expr * block
  | For of string * expr * expr * block
      (** [for i in lo..hi] — [hi] exclusive, bounds evaluated once,
          loop variable immutable in the body *)

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
      (** each argument is a buffer name ([Var]) or an integer/float
          expression over literals and enclosing schedule loop variables *)
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

val builtins : (string * ty list * ty) list
(** Signatures of the builtin functions ([select] is special-cased in the
    typechecker and not listed). *)

val pp_expr : Format.formatter -> expr -> unit
(** Source-like rendering, fully parenthesized. *)
