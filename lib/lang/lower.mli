(** Lowering from the kernel-language AST to the MiniVM IR.

    Kernels compile to flat register code (scalar parameters preloaded
    into the first registers, one dedicated register per source variable,
    single-use temporaries after those). The schedule is elaborated:
    [for] loops are unrolled at compile time, scalar arguments are
    evaluated, and each resulting call becomes one section instance with
    a human-readable label such as [bdiv[k=0,i=1]].

    Precondition: the program typechecks ({!Typecheck.check}); lowering
    raises [Failure] on ASTs that do not. *)

val lower : Ast.program -> Ff_ir.Program.t
