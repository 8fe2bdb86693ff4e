(* Random kernel generator shared by the engine, prover, optimizer and
   liveness tests: straight-line-or-branching bodies over every opcode,
   with operands drawn from [nregs] registers and [nbufs] buffer slots,
   and constants biased toward the edge values (extreme integers, NaN,
   infinities, signed zero) where engines tend to disagree. *)

open Ff_ir

let nbufs = 2 (* slot 0: float, slot 1: int *)

let all_ibinops =
  [
    Instr.Iadd; Instr.Isub; Instr.Imul; Instr.Idiv; Instr.Irem; Instr.Iand; Instr.Ior;
    Instr.Ixor; Instr.Ishl; Instr.Ilshr; Instr.Iashr; Instr.Irotl; Instr.Irotr;
    Instr.Imin; Instr.Imax;
  ]

let all_fbinops =
  [ Instr.Fadd; Instr.Fsub; Instr.Fmul; Instr.Fdiv; Instr.Fmin; Instr.Fmax; Instr.Fpow ]

let all_funops =
  [
    Instr.FFneg; Instr.FFabs; Instr.FFsqrt; Instr.FFexp; Instr.FFlog; Instr.FFsin;
    Instr.FFcos; Instr.FFfloor; Instr.FFceil;
  ]

let all_cmps = [ Instr.Ceq; Instr.Cne; Instr.Clt; Instr.Cle; Instr.Cgt; Instr.Cge ]
let all_casts = [ Instr.Itof; Instr.Ftoi; Instr.Fbits; Instr.Bitsf ]

let gen_int64 =
  QCheck2.Gen.(
    oneof
      [
        map Int64.of_int (int_range (-4) 8);
        map Int64.of_int int;
        oneofl [ Int64.min_int; Int64.max_int; 0L; -1L; 0x7ff0000000000000L ];
      ])

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> float_of_int v *. 0.37) (int_range (-50) 50);
        oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e308; -2.5 ];
      ])

let gen_instr ~nregs ~ninstrs =
  QCheck2.Gen.(
    let reg = int_range 0 (nregs - 1) in
    let label = int_range 0 ninstrs in
    let slot = int_range 0 (nbufs - 1) in
    oneof
      [
        map2 (fun d v -> Instr.Iconst (d, v)) reg gen_int64;
        map2 (fun d v -> Instr.Fconst (d, v)) reg gen_float;
        map2 (fun d s -> Instr.Mov (d, s)) reg reg;
        map3 (fun op (d, a) b -> Instr.Ibin (op, d, a, b)) (oneofl all_ibinops)
          (pair reg reg) reg;
        map3 (fun op (d, a) b -> Instr.Fbin (op, d, a, b)) (oneofl all_fbinops)
          (pair reg reg) reg;
        map3 (fun op d a -> Instr.Iun (op, d, a)) (oneofl [ Instr.Ineg; Instr.Inot ]) reg reg;
        map3 (fun op d a -> Instr.Fun1 (op, d, a)) (oneofl all_funops) reg reg;
        map3 (fun c (d, a) b -> Instr.Icmp (c, d, a, b)) (oneofl all_cmps) (pair reg reg)
          reg;
        map3 (fun c (d, a) b -> Instr.Fcmp (c, d, a, b)) (oneofl all_cmps) (pair reg reg)
          reg;
        map3 (fun c d a -> Instr.Cast (c, d, a)) (oneofl all_casts) reg reg;
        map3 (fun (d, c) a b -> Instr.Select (d, c, a, b)) (pair reg reg) reg reg;
        map3 (fun d s i -> Instr.Load (d, s, i)) reg slot reg;
        map3 (fun s i v -> Instr.Store (s, i, v)) slot reg reg;
        map (fun l -> Instr.Jmp l) label;
        map3 (fun c l1 l2 -> Instr.Br (c, l1, l2)) reg label label;
      ])

(* Signature [(n: int, x: float, inout fb: float[], inout ib: int[])],
   without the scalars when [nregs < 2] leaves no registers for them;
   every label targets an instruction or the trailing [halt]. *)
let gen_kernel_nregs nregs =
  QCheck2.Gen.(
    int_range 1 24 >>= fun ninstrs ->
    list_repeat ninstrs (gen_instr ~nregs ~ninstrs) >|= fun body ->
    {
      Kernel.name = "randk";
      params =
        (if nregs < 2 then []
         else [ Kernel.Scalar ("n", Value.TInt); Kernel.Scalar ("x", Value.TFloat) ])
        @ [
            Kernel.Buffer ("fb", Value.TFloat, Kernel.InOut);
            Kernel.Buffer ("ib", Value.TInt, Kernel.InOut);
          ];
      code = Array.of_list (body @ [ Instr.Halt ]);
      nregs;
    })

let gen_kernel = gen_kernel_nregs 6
