module Hashing = Ff_support.Hashing

type reg = int
type label = int
type buf = int

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type ibinop =
  | Iadd | Isub | Imul | Idiv | Irem
  | Iand | Ior | Ixor
  | Ishl | Ilshr | Iashr
  | Irotl | Irotr
  | Imin | Imax

type fbinop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Fpow

type iunop = Ineg | Inot

type funop = FFneg | FFabs | FFsqrt | FFexp | FFlog | FFsin | FFcos | FFfloor | FFceil

type cast = Itof | Ftoi | Fbits | Bitsf

type t =
  | Iconst of reg * int64
  | Mov of reg * reg
  | Fconst of reg * float
  | Ibin of ibinop * reg * reg * reg
  | Fbin of fbinop * reg * reg * reg
  | Iun of iunop * reg * reg
  | Fun1 of funop * reg * reg
  | Icmp of cmp * reg * reg * reg
  | Fcmp of cmp * reg * reg * reg
  | Cast of cast * reg * reg
  | Select of reg * reg * reg * reg
  | Load of reg * buf * reg
  | Store of buf * reg * reg
  | Jmp of label
  | Br of reg * label * label
  | Halt

let srcs = function
  | Iconst _ | Fconst _ | Jmp _ | Halt -> []
  | Mov (_, s) -> [ s ]
  | Ibin (_, _, a, b) | Fbin (_, _, a, b) | Icmp (_, _, a, b) | Fcmp (_, _, a, b) -> [ a; b ]
  | Iun (_, _, a) | Fun1 (_, _, a) | Cast (_, _, a) | Load (_, _, a) -> [ a ]
  | Select (_, c, a, b) -> [ c; a; b ]
  | Store (_, i, v) -> [ i; v ]
  | Br (c, _, _) -> [ c ]

let dst = function
  | Mov (d, _)
  | Iconst (d, _) | Fconst (d, _)
  | Ibin (_, d, _, _) | Fbin (_, d, _, _)
  | Iun (_, d, _) | Fun1 (_, d, _)
  | Icmp (_, d, _, _) | Fcmp (_, d, _, _)
  | Cast (_, d, _) | Select (d, _, _, _)
  | Load (d, _, _) -> Some d
  | Store _ | Jmp _ | Br _ | Halt -> None

(* Non-allocating operand accessor: the injection engine addresses
   operands as (instruction, source position) on its hottest paths, where
   building the [srcs] list per query would dominate. *)

let src instr k =
  match (instr, k) with
  | Mov (_, s), 0 -> Some s
  | (Ibin (_, _, a, _) | Fbin (_, _, a, _) | Icmp (_, _, a, _) | Fcmp (_, _, a, _)), 0 ->
    Some a
  | (Ibin (_, _, _, b) | Fbin (_, _, _, b) | Icmp (_, _, _, b) | Fcmp (_, _, _, b)), 1 ->
    Some b
  | (Iun (_, _, a) | Fun1 (_, _, a) | Cast (_, _, a) | Load (_, _, a)), 0 -> Some a
  | Select (_, c, _, _), 0 -> Some c
  | Select (_, _, a, _), 1 -> Some a
  | Select (_, _, _, b), 2 -> Some b
  | Store (_, i, _), 0 -> Some i
  | Store (_, _, v), 1 -> Some v
  | Br (c, _, _), 0 -> Some c
  | _ -> None

let dst_index instr = match dst instr with Some d -> d | None -> -1

let labels = function
  | Jmp l -> [ l ]
  | Br (_, l1, l2) -> [ l1; l2 ]
  | Mov _ | Iconst _ | Fconst _ | Ibin _ | Fbin _ | Iun _ | Fun1 _ | Icmp _ | Fcmp _
  | Cast _ | Select _ | Load _ | Store _ | Halt -> []

let is_terminator = function
  | Jmp _ | Br _ | Halt -> true
  | Mov _ | Iconst _ | Fconst _ | Ibin _ | Fbin _ | Iun _ | Fun1 _ | Icmp _ | Fcmp _
  | Cast _ | Select _ | Load _ | Store _ -> false

let map_srcs f = function
  | Mov (d, s) -> Mov (d, f s)
  | Iconst _ | Fconst _ | Jmp _ | Halt as i -> i
  | Ibin (op, d, a, b) -> Ibin (op, d, f a, f b)
  | Fbin (op, d, a, b) -> Fbin (op, d, f a, f b)
  | Iun (op, d, a) -> Iun (op, d, f a)
  | Fun1 (op, d, a) -> Fun1 (op, d, f a)
  | Icmp (c, d, a, b) -> Icmp (c, d, f a, f b)
  | Fcmp (c, d, a, b) -> Fcmp (c, d, f a, f b)
  | Cast (c, d, a) -> Cast (c, d, f a)
  | Select (d, c, a, b) -> Select (d, f c, f a, f b)
  | Load (d, buf, i) -> Load (d, buf, f i)
  | Store (buf, i, v) -> Store (buf, f i, f v)
  | Br (c, l1, l2) -> Br (f c, l1, l2)

let equal (a : t) (b : t) =
  match (a, b) with
  | Fconst (d1, x1), Fconst (d2, x2) ->
    d1 = d2 && Int64.equal (Int64.bits_of_float x1) (Int64.bits_of_float x2)
  | _ -> a = b

let cmp_name = function
  | Ceq -> "eq" | Cne -> "ne" | Clt -> "lt" | Cle -> "le" | Cgt -> "gt" | Cge -> "ge"

let ibinop_name = function
  | Iadd -> "add" | Isub -> "sub" | Imul -> "mul" | Idiv -> "div" | Irem -> "rem"
  | Iand -> "and" | Ior -> "or" | Ixor -> "xor"
  | Ishl -> "shl" | Ilshr -> "lshr" | Iashr -> "ashr"
  | Irotl -> "rotl" | Irotr -> "rotr"
  | Imin -> "imin" | Imax -> "imax"

let fbinop_name = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
  | Fmin -> "fmin" | Fmax -> "fmax" | Fpow -> "fpow"

let iunop_name = function Ineg -> "neg" | Inot -> "not"

let funop_name = function
  | FFneg -> "fneg" | FFabs -> "fabs" | FFsqrt -> "fsqrt" | FFexp -> "fexp"
  | FFlog -> "flog" | FFsin -> "fsin" | FFcos -> "fcos" | FFfloor -> "ffloor"
  | FFceil -> "fceil"

let cast_name = function Itof -> "itof" | Ftoi -> "ftoi" | Fbits -> "fbits" | Bitsf -> "bitsf"

let pp fmt = function
  | Mov (d, s) -> Format.fprintf fmt "r%d <- mov r%d" d s
  | Iconst (d, v) -> Format.fprintf fmt "r%d <- iconst %Ld" d v
  | Fconst (d, v) when Float.is_nan v ->
    (* [%h] prints every NaN as a payload-less [nan]; keep the bits. *)
    Format.fprintf fmt "r%d <- fconst nan:0x%016Lx" d (Int64.bits_of_float v)
  | Fconst (d, v) -> Format.fprintf fmt "r%d <- fconst %h" d v
  | Ibin (op, d, a, b) -> Format.fprintf fmt "r%d <- %s r%d, r%d" d (ibinop_name op) a b
  | Fbin (op, d, a, b) -> Format.fprintf fmt "r%d <- %s r%d, r%d" d (fbinop_name op) a b
  | Iun (op, d, a) -> Format.fprintf fmt "r%d <- %s r%d" d (iunop_name op) a
  | Fun1 (op, d, a) -> Format.fprintf fmt "r%d <- %s r%d" d (funop_name op) a
  | Icmp (c, d, a, b) -> Format.fprintf fmt "r%d <- icmp.%s r%d, r%d" d (cmp_name c) a b
  | Fcmp (c, d, a, b) -> Format.fprintf fmt "r%d <- fcmp.%s r%d, r%d" d (cmp_name c) a b
  | Cast (c, d, a) -> Format.fprintf fmt "r%d <- %s r%d" d (cast_name c) a
  | Select (d, c, a, b) -> Format.fprintf fmt "r%d <- select r%d, r%d, r%d" d c a b
  | Load (d, b, i) -> Format.fprintf fmt "r%d <- load b%d[r%d]" d b i
  | Store (b, i, v) -> Format.fprintf fmt "store b%d[r%d] <- r%d" b i v
  | Jmp l -> Format.fprintf fmt "jmp L%d" l
  | Br (c, l1, l2) -> Format.fprintf fmt "br r%d, L%d, L%d" c l1 l2
  | Halt -> Format.pp_print_string fmt "halt"

let to_string i = Format.asprintf "%a" pp i

let tag = function
  | Mov _ -> 16
  | Iconst _ -> 1 | Fconst _ -> 2 | Ibin _ -> 3 | Fbin _ -> 4 | Iun _ -> 5
  | Fun1 _ -> 6 | Icmp _ -> 7 | Fcmp _ -> 8 | Cast _ -> 9 | Select _ -> 10
  | Load _ -> 11 | Store _ -> 12 | Jmp _ -> 13 | Br _ -> 14 | Halt -> 15

let cmp_tag = function Ceq -> 0 | Cne -> 1 | Clt -> 2 | Cle -> 3 | Cgt -> 4 | Cge -> 5

let ibinop_tag = function
  | Iadd -> 0 | Isub -> 1 | Imul -> 2 | Idiv -> 3 | Irem -> 4 | Iand -> 5 | Ior -> 6
  | Ixor -> 7 | Ishl -> 8 | Ilshr -> 9 | Iashr -> 10 | Irotl -> 11 | Irotr -> 12
  | Imin -> 13 | Imax -> 14

let fbinop_tag = function
  | Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3 | Fmin -> 4 | Fmax -> 5 | Fpow -> 6

let iunop_tag = function Ineg -> 0 | Inot -> 1

let funop_tag = function
  | FFneg -> 0 | FFabs -> 1 | FFsqrt -> 2 | FFexp -> 3 | FFlog -> 4 | FFsin -> 5
  | FFcos -> 6 | FFfloor -> 7 | FFceil -> 8

let cast_tag = function Itof -> 0 | Ftoi -> 1 | Fbits -> 2 | Bitsf -> 3

let hash_fold h instr =
  Hashing.add_int h (tag instr);
  match instr with
  | Mov (d, s) ->
    Hashing.add_int h d;
    Hashing.add_int h s
  | Iconst (d, v) ->
    Hashing.add_int h d;
    Hashing.add_int64 h v
  | Fconst (d, v) ->
    Hashing.add_int h d;
    Hashing.add_float h v
  | Ibin (op, d, a, b) ->
    Hashing.add_int h (ibinop_tag op);
    Hashing.add_int h d; Hashing.add_int h a; Hashing.add_int h b
  | Fbin (op, d, a, b) ->
    Hashing.add_int h (fbinop_tag op);
    Hashing.add_int h d; Hashing.add_int h a; Hashing.add_int h b
  | Iun (op, d, a) ->
    Hashing.add_int h (iunop_tag op);
    Hashing.add_int h d; Hashing.add_int h a
  | Fun1 (op, d, a) ->
    Hashing.add_int h (funop_tag op);
    Hashing.add_int h d; Hashing.add_int h a
  | Icmp (c, d, a, b) ->
    Hashing.add_int h (cmp_tag c);
    Hashing.add_int h d; Hashing.add_int h a; Hashing.add_int h b
  | Fcmp (c, d, a, b) ->
    Hashing.add_int h (cmp_tag c);
    Hashing.add_int h d; Hashing.add_int h a; Hashing.add_int h b
  | Cast (c, d, a) ->
    Hashing.add_int h (cast_tag c);
    Hashing.add_int h d; Hashing.add_int h a
  | Select (d, c, a, b) ->
    Hashing.add_int h d; Hashing.add_int h c; Hashing.add_int h a; Hashing.add_int h b
  | Load (d, b, i) ->
    Hashing.add_int h d; Hashing.add_int h b; Hashing.add_int h i
  | Store (b, i, v) ->
    Hashing.add_int h b; Hashing.add_int h i; Hashing.add_int h v
  | Jmp l -> Hashing.add_int h l
  | Br (c, l1, l2) ->
    Hashing.add_int h c; Hashing.add_int h l1; Hashing.add_int h l2
  | Halt -> ()
