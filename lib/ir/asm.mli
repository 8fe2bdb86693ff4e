(** Textual MiniVM assembly: a parser for the exact format
    {!Kernel.pp} prints, so kernel listings round-trip.

    The format (one instruction per line, [;] starts a comment):

    {v
    kernel scale(s: float, in a: float[], out b: float[])  ; 10 regs
        0: r2 <- iconst 4
        1: r3 <- fconst 0x1p+0
        2: r4 <- fmul r0, r3
        3: store b1[r2] <- r4
        4: br r3, L0, L5
        5: halt
    v}

    [fconst] operands are in [%h] form ([infinity]/[-infinity] for the
    infinities); a NaN prints as [nan:0xBITS], its full 64-bit pattern,
    so every float constant round-trips bit for bit.

    Instruction indices at the start of each line are optional and, when
    present, must match the instruction's position. Register counts come
    from the header comment when present ([; N regs]) or are inferred as
    1 + the highest register mentioned. Useful for writing kernels by
    hand, for golden-file tests, and for prying apart compiler output. *)

type error = {
  line : int;
  message : string;
}

val parse_kernel : string -> (Kernel.t, error) result
(** Parse one kernel listing. *)

val print_kernel : Kernel.t -> string
(** {!Kernel.pp}, as a string — the inverse of {!parse_kernel}:
    [parse_kernel (print_kernel k)] reproduces [k] exactly. *)

val pp_error : Format.formatter -> error -> unit
