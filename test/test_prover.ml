(* Differential tests for the static outcome prover.

   The contract under test: the prover may abstain on any class, but
   every outcome it does claim must equal — bit for bit — what the
   replay oracle reports for that class's pilot. Random programs sweep
   the claim broadly; the targeted unit tests pin each proof rule
   (dead/overwritten destination, trap-only consumer, exact benign SDC)
   to a hand-built kernel where the expected outcome is
   known in closed form. Campaign-level tests then check that the
   prover pre-pass changes only the work accounting, never the results,
   at pool widths 1 and 4, and that checkpoint journals skip proved
   classes. *)

open Ff_ir
open Ff_vm
module Frontend = Ff_lang.Frontend
module Pool = Ff_support.Pool
module Pipeline = Fastflip.Pipeline
open Ff_inject

let compile src =
  match Frontend.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

(* --- random program generators -------------------------------------------- *)

open Rand_kernel

(* A whole random program: one or two random kernels over a shared pair
   of buffers (both program outputs), so prove_final has real final SDC
   to reason about and two-call schedules exercise cross-section
   convergence. *)
let gen_program =
  QCheck2.Gen.(
    let fbuf = list_size (int_range 1 4) (map (fun x -> Value.Float x) gen_float) in
    let ibuf = list_size (int_range 1 4) (map (fun w -> Value.Int w) gen_int64) in
    map3
      (fun (k0, k1) (n, x) ((fb, ib), ncalls) ->
        let fb = Array.of_list fb and ib = Array.of_list ib in
        let buffer name ty init is_output =
          {
            Program.buf_name = name;
            buf_ty = ty;
            buf_size = Array.length init;
            buf_init = init;
            buf_is_output = is_output;
          }
        in
        let call name =
          {
            Program.callee = name;
            args = [ Program.Aint n; Program.Afloat x; Program.Abuf 0; Program.Abuf 1 ];
            call_label = name;
          }
        in
        {
          Program.kernels =
            [ { k0 with Kernel.name = "k0" }; { k1 with Kernel.name = "k1" } ];
          buffers = [ buffer "fb" Value.TFloat fb true; buffer "ib" Value.TInt ib true ];
          schedule = (if ncalls = 1 then [ call "k0" ] else [ call "k0"; call "k1" ]);
        })
      (pair gen_kernel gen_kernel)
      (pair gen_int64 gen_float)
      (pair (pair fbuf ibuf) (int_range 1 2)))

(* --- the differential property --------------------------------------------- *)

let prover_bits = Site.Bit_list [ 0; 21; 40; 51; 62; 63 ]

let check_proofs_against_oracle ?(burst = 1) ?(bits = prover_bits) g =
  Array.iter
    (fun (section : Golden.section_run) ->
      let si = section.Golden.section_index in
      let classes = Array.of_list (Eqclass.for_section section bits) in
      let proofs =
        Prover.prove_section g ~section_index:si ~timeout_factor:5.0
          ~model:(Fault_model.Bitflip { burst }) Prover.on classes
      in
      Array.iteri
        (fun i proof ->
          match proof with
          | None -> ()
          | Some claimed ->
            let injection =
              Replay.Fault (Site.machine_injection (Eqclass.pilot classes.(i)))
            in
            let replay =
              Oracle.run_section ~burst g section injection
                ~timeout_factor:5.0
            in
            let oracle = Outcome.of_section_replay replay in
            if Stdlib.compare claimed oracle <> 0 then
              QCheck2.Test.fail_reportf
                "section proof diverged (section %d, %a): proved %a, replay %a" si
                Site.pp (Eqclass.pilot classes.(i)) Outcome.pp_section claimed
                Outcome.pp_section oracle)
        proofs;
      let fproofs =
        Prover.prove_final g ~section_index:si ~timeout_factor:5.0
          ~model:(Fault_model.Bitflip { burst }) Prover.on classes
      in
      Array.iteri
        (fun i proof ->
          match proof with
          | None -> ()
          | Some claimed ->
            let injection =
              Replay.Fault (Site.machine_injection (Eqclass.pilot classes.(i)))
            in
            let replay =
              Oracle.run_to_end ~burst g ~from_section:si injection
                ~timeout_factor:5.0
            in
            let oracle = Outcome.of_program_replay replay in
            if Stdlib.compare claimed oracle <> 0 then
              QCheck2.Test.fail_reportf
                "final proof diverged (section %d, %a): proved %a, replay %a" si
                Site.pp (Eqclass.pilot classes.(i)) Outcome.pp_final claimed
                Outcome.pp_final oracle)
        fproofs)
    g.Golden.sections

let prop_prover_vs_replay =
  QCheck2.Test.make ~count:150 ~long_factor:1000
    ~name:"prover decisions ≡ replay on random programs"
    QCheck2.Gen.(pair gen_program (oneofl [ 1; 2 ]))
    (fun (program, burst) ->
      match Program.validate program with
      | Error _ -> true
      | Ok () -> (
        (* Most random kernels trap or spin in their golden run; those
           are not analyzable programs, so skip them. *)
        match Golden.run ~budget_per_section:512 program with
        | exception _ -> true
        | g ->
          check_proofs_against_oracle ~burst g;
          true))

(* Seeds at which the random run draws a kernel whose memory taint
   changes a value's type (for example a [Select] on a tainted
   condition in an untyped kernel): the prover must abstain there, not
   raise. *)
let regression_seeds = [ 265; 1093; 3303; 3331 ]

let test_prover_vs_replay_at_fixed_seeds () =
  List.iter
    (fun seed ->
      QCheck2.Test.check_exn ~rand:(Random.State.make [| seed |]) prop_prover_vs_replay)
    regression_seeds

(* --- fixed pipelines: the prover must actually prune ------------------------ *)

let pipeline_src =
  {|buffer a : float[3] = { 1.0, 2.0, -0.5 };
buffer mid : float[3] = zeros;
output buffer res : float[3] = zeros;
kernel double(in a: float[], out mid: float[]) {
  for i in 0..3 { mid[i] = a[i] * 2.0; }
}
kernel inc(in mid: float[], out res: float[]) {
  for i in 0..3 { res[i] = mid[i] + 1.0; }
}
schedule {
  call double(a, mid);
  call inc(mid, res);
}|}

let test_fixed_pipeline_differential () =
  let g = Golden.run (compile pipeline_src) in
  check_proofs_against_oracle g;
  check_proofs_against_oracle ~burst:2 g;
  (* The broad claim is vacuous if the prover abstains on everything. *)
  let proved = ref 0 in
  Array.iter
    (fun (section : Golden.section_run) ->
      let classes = Array.of_list (Eqclass.for_section section prover_bits) in
      let proofs =
        Prover.prove_section g ~section_index:section.Golden.section_index
          ~timeout_factor:5.0 ~model:Fault_model.default Prover.on classes
      in
      Array.iter (function Some _ -> incr proved | None -> ()) proofs)
    g.Golden.sections;
  Alcotest.(check bool) "prover proves a real fraction" true (!proved > 0)

(* Every bit of every register operand: a few thousand classes per
   section, so keys of one register and first access that differ only in
   the faulty word meet in the prover's walk cache, where only the word
   tells them apart. *)
let test_all_bits_differential () =
  check_proofs_against_oracle ~bits:Site.All_bits (Golden.run (compile pipeline_src))

(* --- targeted unit kernels -------------------------------------------------- *)

(* Straight-line kernel with a dead store, an address register feeding
   only loads, and exactly-known float dataflow:
     0: r1 <- 1.0        dead: overwritten at 1 before any read
     1: r1 <- 2.0
     2: r0 <- 0
     3: r2 <- a[r0]      (1.5)
     4: r3 <- r2 + r1    (3.5)
     5: o[r0] <- r3
     6: r0 <- 1
     7: r2 <- a[r0]      (2.5)
     8: r3 <- r2 + r1    (4.5)
     9: o[r0] <- r3
    10: halt *)
let unit_kernel =
  {
    Kernel.name = "k";
    params =
      [
        Kernel.Buffer ("a", Value.TFloat, Kernel.In);
        Kernel.Buffer ("o", Value.TFloat, Kernel.Out);
      ];
    code =
      [|
        Instr.Fconst (1, 1.0);
        Instr.Fconst (1, 2.0);
        Instr.Iconst (0, 0L);
        Instr.Load (2, 0, 0);
        Instr.Fbin (Instr.Fadd, 3, 2, 1);
        Instr.Store (1, 0, 3);
        Instr.Iconst (0, 1L);
        Instr.Load (2, 0, 0);
        Instr.Fbin (Instr.Fadd, 3, 2, 1);
        Instr.Store (1, 0, 3);
        Instr.Halt;
      |];
    nregs = 4;
  }

let unit_program =
  {
    Program.kernels = [ unit_kernel ];
    buffers =
      [
        {
          Program.buf_name = "a";
          buf_ty = Value.TFloat;
          buf_size = 2;
          buf_init = [| Value.Float 1.5; Value.Float 2.5 |];
          buf_is_output = false;
        };
        {
          Program.buf_name = "o";
          buf_ty = Value.TFloat;
          buf_size = 2;
          buf_init = [| Value.Float 0.0; Value.Float 0.0 |];
          buf_is_output = true;
        };
      ];
    schedule =
      [ { Program.callee = "k"; args = [ Program.Abuf 0; Program.Abuf 1 ]; call_label = "k" } ];
  }

let unit_golden = lazy (Golden.run unit_program)

(* Prove the section's classes and look up the proof of one specific
   (instr, operand, bit) site, together with its replay oracle. *)
let prove_site ~instr ~operand ~bit () =
  let g = Lazy.force unit_golden in
  let section = g.Golden.sections.(0) in
  let classes = Array.of_list (Eqclass.for_section section (Site.Bit_list [ bit ])) in
  let proofs =
    Prover.prove_section g ~section_index:0 ~timeout_factor:5.0
      ~model:Fault_model.default Prover.on classes
  in
  let fproofs =
    Prover.prove_final g ~section_index:0 ~timeout_factor:5.0
      ~model:Fault_model.default Prover.on classes
  in
  let found = ref None in
  Array.iteri
    (fun i (cls : Eqclass.t) ->
      if (Eqclass.pc cls).Site.instr = instr && Eqclass.operand cls = operand then begin
        let injection = Replay.Fault (Site.machine_injection (Eqclass.pilot cls)) in
        let replay =
          Oracle.run_section ~burst:1 g section injection
            ~timeout_factor:5.0
        in
        let freplay =
          Oracle.run_to_end ~burst:1 g ~from_section:0 injection
            ~timeout_factor:5.0
        in
        found :=
          Some
            ( proofs.(i),
              Outcome.of_section_replay replay,
              fproofs.(i),
              Outcome.of_program_replay freplay )
      end)
    classes;
  match !found with
  | Some r -> r
  | None -> Alcotest.failf "no class at instr %d" instr

let check_agrees name proof oracle =
  match proof with
  | None -> Alcotest.failf "%s: expected a proof, prover abstained" name
  | Some o ->
    if Stdlib.compare o oracle <> 0 then
      Alcotest.failf "%s: proof %s but replay %s" name
        (Format.asprintf "%a" Outcome.pp_section o)
        (Format.asprintf "%a" Outcome.pp_section oracle)

let test_dead_dst_is_masked () =
  (* pc 0's destination is overwritten at pc 1 before any read: the
     walk sees the taint die there, so every destination flip is a
     proved mask. *)
  let proof, oracle, fproof, foracle = prove_site ~instr:0 ~operand:Site.Dst ~bit:62 () in
  check_agrees "dead dst" proof oracle;
  (match proof with
  | Some (Outcome.S_sdc sdc) ->
    Alcotest.(check bool) "masked: all-zero section SDC" true
      (Array.for_all (fun (_, m) -> m = 0.0) sdc)
  | _ -> Alcotest.fail "dead dst: expected an S_sdc proof");
  (* Masked in the section means converged at the section boundary:
     run_to_end reports all-zero final SDC and so does the prover. *)
  match (fproof, foracle) with
  | Some (Outcome.F_sdc f), o when Stdlib.compare (Outcome.F_sdc f) o = 0 ->
    Alcotest.(check bool) "final: all-zero SDC" true (List.for_all (fun (_, m) -> m = 0.0) f)
  | _ -> Alcotest.fail "dead dst: expected a converged final proof"

let test_trap_only_consumer_is_crash () =
  (* Flipping bit 40 of the index register read by the load at pc 3
     (golden value 0) sends the only consumer of that flip out of
     bounds: a proved Crash, in the section and end to end. *)
  let proof, oracle, fproof, foracle =
    prove_site ~instr:3 ~operand:(Site.Src 0) ~bit:40 ()
  in
  check_agrees "trap-only consumer" proof oracle;
  (match proof with
  | Some (Outcome.S_detected Outcome.Crash) -> ()
  | _ -> Alcotest.fail "expected a Crash proof");
  match (fproof, foracle) with
  | Some (Outcome.F_detected Outcome.Crash), Outcome.F_detected Outcome.Crash -> ()
  | _ -> Alcotest.fail "expected a final Crash proof"

let test_overwritten_register_flip_exact () =
  (* pc 1's destination (r1 = 2.0) feeds both adds: flipping mantissa
     bit 51 turns it into 3.0, shifting both outputs by exactly 1.0. *)
  let proof, oracle, _, _ = prove_site ~instr:1 ~operand:Site.Dst ~bit:51 () in
  check_agrees "live dst flip" proof oracle;
  match proof with
  | Some (Outcome.S_sdc sdc) ->
    Alcotest.(check bool) "exact magnitude 1.0" true
      (Array.exists (fun (_, m) -> m = 1.0) sdc)
  | _ -> Alcotest.fail "expected an exact SDC proof"

(* Once register taint has died, the walk leaps to the next golden access
   of any tainted element. Here two elements are tainted when the last
   tainted register is overwritten, and only the second is read again,
   scaled by 4 into a third element:
     0: r0 <- 1.0        flipped (Dst)
     1: r1 <- 0          2: o[r1] <- r0
     3: r1 <- 1          4: o[r1] <- r0
     5: r0 <- 0.0        register taint dies here
     6: r2 <- 1          7: r3 <- o[r2]
     8: r5 <- 4.0        9: r3 <- r3 * r5
    10: r4 <- 2         11: o[r4] <- r3
    12: halt *)
let leap_program =
  let code =
    [|
      Instr.Fconst (0, 1.0);
      Instr.Iconst (1, 0L);
      Instr.Store (0, 1, 0);
      Instr.Iconst (1, 1L);
      Instr.Store (0, 1, 0);
      Instr.Fconst (0, 0.0);
      Instr.Iconst (2, 1L);
      Instr.Load (3, 0, 2);
      Instr.Fconst (5, 4.0);
      Instr.Fbin (Instr.Fmul, 3, 3, 5);
      Instr.Iconst (4, 2L);
      Instr.Store (0, 4, 3);
      Instr.Halt;
    |]
  in
  {
    Program.kernels =
      [
        {
          Kernel.name = "k";
          params = [ Kernel.Buffer ("o", Value.TFloat, Kernel.Out) ];
          code;
          nregs = 6;
        };
      ];
    buffers =
      [
        {
          Program.buf_name = "o";
          buf_ty = Value.TFloat;
          buf_size = 3;
          buf_init = Array.make 3 (Value.Float 0.0);
          buf_is_output = true;
        };
      ];
    schedule = [ { Program.callee = "k"; args = [ Program.Abuf 0 ]; call_label = "k" } ];
  }

let test_leap_reaches_every_tainted_element () =
  let g = Golden.run leap_program in
  let section = g.Golden.sections.(0) in
  let classes = Array.of_list (Eqclass.for_section section (Site.Bit_list [ 51 ])) in
  let proofs =
    Prover.prove_section g ~section_index:0 ~timeout_factor:5.0 ~model:Fault_model.default
      Prover.on classes
  in
  let i = ref (-1) in
  Array.iteri
    (fun j cls ->
      if (Eqclass.pc cls).Site.instr = 0 && Eqclass.operand cls = Site.Dst then i := j)
    classes;
  let replay =
    Oracle.run_section ~burst:1 g section
      (Replay.Fault (Site.machine_injection (Eqclass.pilot classes.(!i))))
      ~timeout_factor:5.0
  in
  let oracle = Outcome.of_section_replay replay in
  check_agrees "leap" proofs.(!i) oracle;
  (* 1.0 flipped at bit 51 is 1.5: the scaled copy moves by 2.0 *)
  match oracle with
  | Outcome.S_sdc [| (_, m) |] -> Alcotest.(check (float 0.0)) "scaled delta" 2.0 m
  | _ -> Alcotest.fail "expected a one-buffer SDC"

(* A completed walk that changed an element outside the writable
   buffers, by less than 1, proves nothing: the replay reports that
   change as an unbounded side-effect SDC. A validated program stores
   only through writable slots, so the case is built by binding the
   written buffer [w] as read-only in a copy of the golden run (its
   bindings and the index sets derived from them):
     0: r0 <- 1.0   flipped (Dst) at bit 51: 1.5
     1: r1 <- 0     2: w[r1] <- r0
     3: r2 <- 2.0   4: o[r1] <- r2
     5: halt *)
let test_side_effect_declined () =
  let buffer name =
    {
      Program.buf_name = name;
      buf_ty = Value.TFloat;
      buf_size = 1;
      buf_init = [| Value.Float 0.0 |];
      buf_is_output = true;
    }
  in
  let program =
    {
      Program.kernels =
        [
          {
            Kernel.name = "k";
            params =
              [
                Kernel.Buffer ("o", Value.TFloat, Kernel.Out);
                Kernel.Buffer ("w", Value.TFloat, Kernel.Out);
              ];
            code =
              [|
                Instr.Fconst (0, 1.0);
                Instr.Iconst (1, 0L);
                Instr.Store (1, 1, 0);
                Instr.Fconst (2, 2.0);
                Instr.Store (0, 1, 2);
                Instr.Halt;
              |];
            nregs = 3;
          };
        ];
      buffers = [ buffer "o"; buffer "w" ];
      schedule =
        [
          {
            Program.callee = "k";
            args = [ Program.Abuf 0; Program.Abuf 1 ];
            call_label = "k";
          };
        ];
    }
  in
  let prove g =
    let section = g.Golden.sections.(0) in
    let classes = Array.of_list (Eqclass.for_section section (Site.Bit_list [ 51 ])) in
    let proofs =
      Prover.prove_section g ~section_index:0 ~timeout_factor:5.0
        ~model:Fault_model.default Prover.on classes
    in
    let i = ref (-1) in
    Array.iteri
      (fun j cls ->
        if (Eqclass.pc cls).Site.instr = 0 && Eqclass.operand cls = Site.Dst then i := j)
      classes;
    let replay =
      Oracle.run_section ~burst:1 g section
        (Replay.Fault (Site.machine_injection (Eqclass.pilot classes.(!i))))
        ~timeout_factor:5.0
    in
    (proofs.(!i), Outcome.of_section_replay replay)
  in
  let g = Golden.run program in
  let proof, oracle = prove g in
  check_agrees "w writable" proof oracle;
  (match oracle with
  | Outcome.S_sdc [| (0, 0.0); (1, 0.5) |] -> ()
  | o -> Alcotest.failf "w writable: replay %a" Outcome.pp_section o);
  let s = g.Golden.sections.(0) in
  let g =
    {
      g with
      Golden.sections =
        [|
          {
            s with
            Golden.bindings = [| (0, Kernel.Out); (1, Kernel.In) |];
            writable_idx = [| 0 |];
            scan_idx = [| 1 |];
          };
        |];
    }
  in
  let proof, oracle = prove g in
  (match oracle with
  | Outcome.S_sdc [| (0, m) |] when m = infinity -> ()
  | o -> Alcotest.failf "w read-only: replay %a" Outcome.pp_section o);
  match proof with
  | None -> ()
  | Some o -> Alcotest.failf "w read-only: proved %a" Outcome.pp_section o

(* --- wholesale refusals ------------------------------------------------------ *)

(* A replay budget below the golden schedule times out even a masked
   flip, so a proof computed at a normal budget would be wrong there:
   the prover must refuse the whole section instead. *)
let test_short_budget_refused () =
  let g = Golden.run (compile pipeline_src) in
  let section = g.Golden.sections.(0) in
  let short = 0.5 in
  Alcotest.(check bool) "budget falls short of the golden schedule" true
    (Replay.budget_of ~timeout_factor:short section.Golden.dyn_count
    < section.Golden.dyn_count);
  let classes = Array.of_list (Eqclass.for_section section prover_bits) in
  let prove timeout_factor =
    Prover.prove_section g ~section_index:0 ~timeout_factor ~model:Fault_model.default
      Prover.on classes
  in
  Alcotest.(check bool) "no section proof under the short budget" true
    (Array.for_all Option.is_none (prove short));
  Alcotest.(check bool) "no final proof under the short budget" true
    (Array.for_all Option.is_none
       (Prover.prove_final g ~section_index:0 ~timeout_factor:short
          ~model:Fault_model.default Prover.on classes));
  (* The refusal is what keeps the prover sound: a class proved at the
     normal budget replays differently under the short one. *)
  let normal = prove 5.0 in
  let wrong_somewhere = ref false in
  Array.iteri
    (fun i proof ->
      match proof with
      | None -> ()
      | Some claimed ->
        let injection = Replay.Fault (Site.machine_injection (Eqclass.pilot classes.(i))) in
        let replay =
          Oracle.run_section ~burst:1 g section injection
            ~timeout_factor:short
        in
        if Stdlib.compare claimed (Outcome.of_section_replay replay) <> 0 then
          wrong_somewhere := true)
    normal;
  Alcotest.(check bool) "a normal-budget proof is wrong under the short budget" true
    !wrong_somewhere

let test_disabled_policy_refused () =
  let g = Golden.run (compile pipeline_src) in
  Array.iter
    (fun (section : Golden.section_run) ->
      let si = section.Golden.section_index in
      let classes = Array.of_list (Eqclass.for_section section prover_bits) in
      Alcotest.(check bool) "no section proof" true
        (Array.for_all Option.is_none
           (Prover.prove_section g ~section_index:si ~timeout_factor:5.0
              ~model:Fault_model.default Prover.off classes));
      Alcotest.(check bool) "no final proof" true
        (Array.for_all Option.is_none
           (Prover.prove_final g ~section_index:si ~timeout_factor:5.0
              ~model:Fault_model.default Prover.off classes)))
    g.Golden.sections

(* --- store keys ------------------------------------------------------------- *)

let test_policy_hash_separates_configs () =
  Alcotest.(check bool) "on and off differ" true
    (Prover.policy_hash Prover.on <> Prover.policy_hash Prover.off);
  let base = { Campaign.default_config with Campaign.prove = Prover.on } in
  let off = { base with Campaign.prove = Prover.off } in
  Alcotest.(check bool) "campaign config hash covers the prover policy" true
    (Campaign.config_hash base <> Campaign.config_hash off)

(* --- campaign integration: identical results, less work --------------------- *)

let config_on =
  { Campaign.default_config with Campaign.bits = prover_bits; prove = Prover.on }

let config_off = { config_on with Campaign.prove = Prover.off }

let test_campaign_parity_on_off_across_pools () =
  let g = Golden.run (compile pipeline_src) in
  let reference = Campaign.run_section g ~section_index:0 config_off in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let proved = Campaign.run_section ~pool g ~section_index:0 config_on in
          Alcotest.(check bool)
            (Printf.sprintf "outcomes identical at %d domain(s)" domains)
            true
            (Stdlib.compare reference.Campaign.s_classes proved.Campaign.s_classes = 0);
          Alcotest.(check bool) "prover avoided injections" true
            (proved.Campaign.s_injections < reference.Campaign.s_injections);
          Alcotest.(check bool) "avoided replays cost no work" true
            (proved.Campaign.s_work < reference.Campaign.s_work)))
    [ 1; 4 ]

let test_final_outcomes_parity_on_off () =
  let g = Golden.run (compile pipeline_src) in
  let off, _ = Campaign.final_outcomes_for_section g ~section_index:0 config_off in
  let on, _ = Campaign.final_outcomes_for_section g ~section_index:0 config_on in
  Alcotest.(check bool) "final outcomes identical" true (Stdlib.compare off on = 0)

let test_journal_skips_proved_classes () =
  (* With the prover on, only residual classes reach the journal; a
     resume seeded with those entries replays nothing new and produces
     the identical result. *)
  let g = Golden.run (compile pipeline_src) in
  let appended = ref [] in
  let journal =
    {
      Campaign.j_every = 2;
      j_done = Hashtbl.create 16;
      j_append = (fun batch -> appended := batch @ !appended);
    }
  in
  let first = Campaign.run_section ~journal g ~section_index:0 config_on in
  Alcotest.(check int) "journal holds exactly the residual classes"
    first.Campaign.s_injections
    (List.length !appended);
  let done_tbl = Hashtbl.create 16 in
  List.iter (fun (i, o, w) -> Hashtbl.replace done_tbl i (o, w)) !appended;
  let resumed = ref [] in
  let journal2 =
    {
      Campaign.j_every = 2;
      j_done = done_tbl;
      j_append = (fun batch -> resumed := batch @ !resumed);
    }
  in
  let second = Campaign.run_section ~journal:journal2 g ~section_index:0 config_on in
  Alcotest.(check int) "resume replays nothing" 0 (List.length !resumed);
  Alcotest.(check bool) "resume is bit-identical" true
    (Stdlib.compare first.Campaign.s_classes second.Campaign.s_classes = 0);
  Alcotest.(check int) "resume work matches" first.Campaign.s_work second.Campaign.s_work

(* The prover's recording cache holds its section run through an
   ephemeron: once the caller drops a golden run, nothing the prover
   cached keeps it, its section runs or its decoded kernels alive. *)
let[@inline never] prove_and_keep_weakly weak =
  let g = Golden.run unit_program in
  let section = g.Golden.sections.(0) in
  let classes = Array.of_list (Eqclass.for_section section (Site.Bit_list [ 0; 62 ])) in
  let proofs =
    Prover.prove_section g ~section_index:0 ~timeout_factor:5.0
      ~model:Fault_model.default Prover.on classes
  in
  let fproofs =
    Prover.prove_final g ~section_index:0 ~timeout_factor:5.0
      ~model:Fault_model.default Prover.on classes
  in
  Weak.set weak 0 (Some (Obj.repr g));
  Weak.set weak 1 (Some (Obj.repr section));
  Weak.set weak 2 (Some (Obj.repr section.Golden.decoded));
  Array.exists Option.is_some proofs && Array.exists Option.is_some fproofs

let test_recordings_do_not_pin_their_section () =
  let weak = Weak.create 3 in
  Alcotest.(check bool) "the section was recorded and proved" true
    (prove_and_keep_weakly weak);
  Gc.full_major ();
  List.iteri
    (fun i what ->
      Alcotest.(check bool) (what ^ " was collected") false (Weak.check weak i))
    [ "the golden run"; "its section run"; "its decoded kernel" ]

(* --- evaluation of tainted steps, op by op ----------------------------------- *)

(* The walk runs a tainted instruction through the unboxed engine's
   step on staged words and tags, not through a replay. Each case here
   is a straight-line kernel that loads constants, runs one instruction
   with one operand flipped to an edge value (or made type-confused by a
   flipped [Select] upstream), and sinks the result through
   [Bitsf]/[Fbits] into an int output: any value of the golden type
   reaches the output as exact bits, and a value of the other type traps
   in the sink. The prover therefore decides every case, and its
   decision must be the oracle's replay's. *)

type operand_ty = I | F

let edge_ints = [ 0L; -1L; Int64.min_int; Int64.max_int; 1L; 64L; 127L ]

let edge_floats =
  [
    Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1e19; -1e19;
    9.223372036854775808e18; -9.223372036854775808e18; 0.5; -1.0; 5e-324;
  ]

let clean_ints = [ 0L; 1L; -1L; 3L; Int64.min_int; 63L; 64L ]
let clean_floats = [ 0.0; -0.0; 1.5; -2.0; Float.nan; Float.infinity; 1e19 ]

let value_of_bits ty w =
  match ty with I -> Value.Int w | F -> Value.Float (Int64.float_of_bits w)

let bits_of = function Value.Int w -> w | Value.Float x -> Int64.bits_of_float x

let const r = function
  | Value.Int w -> Instr.Iconst (r, w)
  | Value.Float x -> Instr.Fconst (r, x)

let edges = function
  | I -> List.map (fun w -> Value.Int w) edge_ints
  | F -> List.map (fun x -> Value.Float x) edge_floats

let cleans = function
  | I -> List.map (fun w -> Value.Int w) clean_ints
  | F -> List.map (fun x -> Value.Float x) clean_floats

(* Every instruction the walk evaluates, as (name, operand types, result
   type, constructor over destination and operand registers). *)
let evaluated_ops =
  let bin name mk tys res =
    (name, tys, res, fun d -> function [ a; b ] -> mk d a b | _ -> assert false)
  in
  let un name mk ty res =
    (name, [ ty ], res, fun d -> function [ a ] -> mk d a | _ -> assert false)
  in
  let select ty =
    ( "select",
      [ I; ty; ty ],
      ty,
      fun d -> function [ c; a; b ] -> Instr.Select (d, c, a, b) | _ -> assert false )
  in
  List.map
    (fun op -> bin "ibin" (fun d a b -> Instr.Ibin (op, d, a, b)) [ I; I ] I)
    Rand_kernel.all_ibinops
  @ List.map
      (fun op -> bin "fbin" (fun d a b -> Instr.Fbin (op, d, a, b)) [ F; F ] F)
      Rand_kernel.all_fbinops
  @ List.map
      (fun c -> bin "icmp" (fun d a b -> Instr.Icmp (c, d, a, b)) [ I; I ] I)
      Rand_kernel.all_cmps
  @ List.map
      (fun c -> bin "fcmp" (fun d a b -> Instr.Fcmp (c, d, a, b)) [ F; F ] I)
      Rand_kernel.all_cmps
  @ List.map
      (fun op -> un "iun" (fun d a -> Instr.Iun (op, d, a)) I I)
      [ Instr.Ineg; Instr.Inot ]
  @ List.map
      (fun op -> un "fun1" (fun d a -> Instr.Fun1 (op, d, a)) F F)
      Rand_kernel.all_funops
  @ List.map
      (fun (c, a, r) -> un "cast" (fun d x -> Instr.Cast (c, d, x)) a r)
      [ (Instr.Itof, I, F); (Instr.Ftoi, F, I); (Instr.Fbits, F, I); (Instr.Bitsf, I, F) ]
  @ List.concat_map
      (fun ty -> [ un "mov" (fun d s -> Instr.Mov (d, s)) ty ty; select ty ])
      [ I; F ]

type taint =
  | Flip of int * int  (** operand, bit *)
  | Confuse of int * bool
      (** operand, and whether the other-typed value has the golden bits *)

(* One case: golden operand values [golden], the instruction under test
   after their constants (or after the confusing [Select]), and the
   flip described by [taint]. [share] reads every operand of the tested
   instruction from register 0. Returns [None] when the golden run
   itself traps (a clean operand the op cannot take). *)
let run_case (_, tys, res, mk) golden taint ~share =
  let n = List.length golden in
  let consts = List.mapi (fun r v -> const r v) golden in
  (* registers: 0..n-1 operands, n condition, n+1 other-typed value,
     n+2 result, n+3 and n+4 sink, n+5 index *)
  let pre, operand_regs, site_instr, site_operand, bit =
    match taint with
    | Flip (k, bit) ->
      ([], List.mapi (fun r _ -> if share then 0 else r) golden, n, Site.Src k, bit)
    | Confuse (k, same_bits) ->
      let bits = if same_bits then bits_of (List.nth golden k) else 0x3ff8000000000000L in
      let other = value_of_bits (match List.nth tys k with I -> F | F -> I) bits in
      (* golden: the Select keeps operand k (condition 0); flipping
         bit 0 of the condition picks the other-typed value instead *)
      ( [ Instr.Iconst (n, 0L); const (n + 1) other; Instr.Select (k, n, n + 1, k) ],
        List.init n Fun.id,
        n + 2,
        Site.Src 0,
        0 )
  in
  let sink =
    match res with
    | I ->
      [ Instr.Cast (Instr.Bitsf, n + 3, n + 2); Instr.Cast (Instr.Fbits, n + 4, n + 3) ]
    | F -> [ Instr.Mov (n + 3, n + 2); Instr.Cast (Instr.Fbits, n + 4, n + 3) ]
  in
  let code =
    Array.of_list
      (consts @ pre
      @ [ mk (n + 2) operand_regs ]
      @ sink
      @ [ Instr.Iconst (n + 5, 0L); Instr.Store (0, n + 5, n + 4); Instr.Halt ])
  in
  let kernel =
    {
      Kernel.name = "op";
      params = [ Kernel.Buffer ("o", Value.TInt, Kernel.Out) ];
      code;
      nregs = n + 6;
    }
  in
  let program =
    {
      Program.kernels = [ kernel ];
      buffers =
        [
          {
            Program.buf_name = "o";
            buf_ty = Value.TInt;
            buf_size = 1;
            buf_init = [| Value.Int 0L |];
            buf_is_output = true;
          };
        ];
      schedule =
        [ { Program.callee = "op"; args = [ Program.Abuf 0 ]; call_label = "op" } ];
    }
  in
  match Golden.run program with
  | exception Failure _ -> None
  | g ->
    let section = g.Golden.sections.(0) in
    let classes = Array.of_list (Eqclass.for_section section (Site.Bit_list [ bit ])) in
    let proofs =
      Prover.prove_section g ~section_index:0 ~timeout_factor:5.0
        ~model:Fault_model.default Prover.on classes
    in
    let i = ref (-1) in
    Array.iteri
      (fun j cls ->
        if (Eqclass.pc cls).Site.instr = site_instr && Eqclass.operand cls = site_operand
        then i := j)
      classes;
    let injection = Replay.Fault (Site.machine_injection (Eqclass.pilot classes.(!i))) in
    let replay =
      Oracle.run_section ~burst:1 g section injection
        ~timeout_factor:5.0
    in
    Some (proofs.(!i), Outcome.of_section_replay replay)

let describe name golden taint ~share =
  Printf.sprintf "%s %s (%s)" name
    (String.concat ", " (List.map Value.to_string golden))
    (match taint with
    | Flip (k, b) ->
      Printf.sprintf "operand %d bit %d%s" k b (if share then ", shared" else "")
    | Confuse (k, same) ->
      Printf.sprintf "operand %d type-confused%s" k (if same then ", same bits" else ""))

let test_evaluation_matches_replay () =
  let cases = ref 0 and wrong = ref [] in
  let check ((name, _, _, _) as op) golden taint ~share =
    match run_case op golden taint ~share with
    | None -> ()
    | Some (proof, oracle) -> (
      incr cases;
      match proof with
      | None -> wrong := (describe name golden taint ~share ^ ": abstained") :: !wrong
      | Some o ->
        if Stdlib.compare o oracle <> 0 then
          wrong :=
            Format.asprintf "%s: proved %a, replay %a"
              (describe name golden taint ~share)
              Outcome.pp_section o Outcome.pp_section oracle
            :: !wrong)
  in
  List.iter
    (fun ((_, tys, _, _) as op) ->
      (* the operands other than the flipped one take every clean value,
         one operand at a time, the rest their first clean value *)
      let bases k =
        let varied =
          List.concat
            (List.mapi
               (fun j tj ->
                 if j = k then []
                 else
                   List.map
                     (fun v ->
                       List.mapi
                         (fun i ti -> if i = j then v else List.hd (cleans ti))
                         tys)
                     (cleans tj))
               tys)
        in
        if varied = [] then [ List.map (fun t -> List.hd (cleans t)) tys ] else varied
      in
      List.iteri
        (fun k ty ->
          List.iter
            (fun base ->
              List.iter
                (fun f ->
                  List.iter
                    (fun bit ->
                      let mask = Int64.shift_left 1L bit in
                      let g = value_of_bits ty (Int64.logxor (bits_of f) mask) in
                      check op (List.mapi (fun i v -> if i = k then g else v) base)
                        (Flip (k, bit)) ~share:false;
                      (* every operand read from the flipped register *)
                      if k = 0 && List.length tys > 1 && List.for_all (( = ) ty) tys then
                        check op (List.map (fun _ -> g) tys) (Flip (0, bit)) ~share:true)
                    [ 0; 62; 63 ])
                (edges ty);
              check op base (Confuse (k, false)) ~share:false;
              check op base (Confuse (k, true)) ~share:false)
            (bases k))
        tys)
    evaluated_ops;
  if !wrong <> [] then
    Alcotest.failf "%d of %d cases differ:\n%s" (List.length !wrong) !cases
      (String.concat "\n" (List.rev !wrong));
  Alcotest.(check bool) "cases ran" true (!cases > 1000)

(* --- decisions pinned ------------------------------------------------------ *)

(* What the prover decides on the five built-in None programs under the
   default campaign config, per (program, masked, crash, benign,
   undecided), recorded from the boxed-[Value.t] walk the allocation-free
   walk replaced. The differential suite only checks that claims are
   sound, so a walk that abstained more would still pass it; these
   counts pin that it decides exactly what it did. *)
let pinned_decisions =
  [
    ("BScholes", (1730, 3150, 7383, 1113));
    ("Campipe", (843, 2150, 1856, 1903));
    ("FFT", (2670, 1794, 2417, 2623));
    ("LUD", (4252, 13057, 3358, 12581));
    ("SHA2", (3309, 974, 3147, 746));
  ]

module Telemetry = Ff_support.Telemetry
module Registry = Ff_benchmarks.Registry
module Defs = Ff_benchmarks.Defs

let decisions_of (def : Defs.t) =
  let g = Golden.run (compile (def.Defs.source Defs.V_none)) in
  let cfg = Campaign.default_config in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Array.iter
    (fun (section : Golden.section_run) ->
      let classes =
        Array.of_list
          (Eqclass.for_section ~model:cfg.Campaign.model section cfg.Campaign.bits)
      in
      ignore
        (Prover.prove_section g ~section_index:section.Golden.section_index
           ~timeout_factor:cfg.Campaign.timeout_factor ~model:cfg.Campaign.model Prover.on
           classes))
    g.Golden.sections;
  let v name = Telemetry.value (Telemetry.counter name) in
  let counts =
    ( v "prover.classes_masked",
      v "prover.classes_crash",
      v "prover.classes_benign",
      v "prover.classes_undecided" )
  in
  Telemetry.reset ();
  Telemetry.set_enabled was;
  counts

let test_decisions_pinned () =
  let wrong =
    List.filter_map
      (fun (def : Defs.t) ->
        let ((m, c, b, u) as got) = decisions_of def in
        if got = List.assoc def.Defs.name pinned_decisions then None
        else
          Some
            (Printf.sprintf "%s/None: masked %d crash %d benign %d undecided %d"
               def.Defs.name m c b u))
      Registry.all
  in
  if wrong <> [] then Alcotest.fail (String.concat "; " wrong)

let () =
  Alcotest.run "prover"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_prover_vs_replay;
          Alcotest.test_case "prover ≡ replay at fixed regression seeds" `Quick
            test_prover_vs_replay_at_fixed_seeds;
          Alcotest.test_case "fixed pipeline, bursts 1 and 2" `Quick
            test_fixed_pipeline_differential;
          Alcotest.test_case "fixed pipeline, all 64 bits" `Quick
            test_all_bits_differential;
        ] );
      ( "proof rules",
        [
          Alcotest.test_case "dead/overwritten dst is masked" `Quick
            test_dead_dst_is_masked;
          Alcotest.test_case "trap-only consumer is crash" `Quick
            test_trap_only_consumer_is_crash;
          Alcotest.test_case "live flip has exact SDC" `Quick
            test_overwritten_register_flip_exact;
          Alcotest.test_case "leaps reach every tainted element" `Quick
            test_leap_reaches_every_tainted_element;
          Alcotest.test_case "side effect outside the writable buffers" `Quick
            test_side_effect_declined;
        ] );
      ( "guards refuse wholesale",
        [
          Alcotest.test_case "replay budget below the golden schedule" `Quick
            test_short_budget_refused;
          Alcotest.test_case "disabled policy" `Quick test_disabled_policy_refused;
        ] );
      ( "store keys",
        [
          Alcotest.test_case "policy hash separates configs" `Quick
            test_policy_hash_separates_configs;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "prove on/off parity at pools 1 and 4" `Quick
            test_campaign_parity_on_off_across_pools;
          Alcotest.test_case "final outcomes parity" `Quick
            test_final_outcomes_parity_on_off;
          Alcotest.test_case "journal skips proved classes" `Quick
            test_journal_skips_proved_classes;
        ] );
      ( "caches",
        [
          Alcotest.test_case "recordings do not pin their section" `Quick
            test_recordings_do_not_pin_their_section;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "every evaluated op at edge values ≡ replay" `Quick
            test_evaluation_matches_replay;
        ] );
      ( "pins",
        [
          Alcotest.test_case "decisions on the built-in None programs" `Quick
            test_decisions_pinned;
        ] );
    ]
