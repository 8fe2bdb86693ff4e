(** Static semantics of the kernel language.

    The typechecker enforces:
    {ul
    {- distinct global buffer names, kernel names, and parameter names;}
    {- scalar/buffer and int/float discipline with no implicit
       conversions (use the [float_of_int] family of builtins);}
    {- buffer access through indexing only, with integer indices;}
    {- stores only to [out]/[inout] buffer parameters;}
    {- conditions and logical operands of type [int];}
    {- no redeclaration of variables within a kernel (flat namespace)
       and immutability of [for] loop variables;}
    {- schedule well-formedness: calls match kernel signatures, buffer
       arguments name global buffers of the right element type, scalar
       arguments are expressions over literals and schedule loop
       variables.}} *)

type error = {
  loc : Loc.t;
  message : string;
}

val check : Ast.program -> (unit, error) result

val pp_error : Format.formatter -> error -> unit
