(* The tests' reference oracle: an independent, boxed implementation of
   the IR's semantics, and everything built on it that the differential
   suites compare the production engine ({!Ff_vm.Unboxed}) with. The
   interpreter below is a tree walk: each instruction is a constructor
   match over boxed {!Ff_ir.Value.t} registers and buffers. It shares
   nothing with the unboxed engine but the vocabulary of
   {!Ff_vm.Machine} (traps, statuses, injections, telemetry). *)

open Ff_ir
open Ff_vm
open Machine
module A1 = Bigarray.Array1

(* --- the boxed interpreter ------------------------------------------------ *)

let trap t = raise (Trap t)

let as_int = function Value.Int w -> w | Value.Float _ -> trap Type_confusion
let as_float = function Value.Float x -> x | Value.Int _ -> trap Type_confusion

let int64_max_float = 9.223372036854775808e18

let eval_ibin op a b =
  let open Int64 in
  match op with
  | Instr.Iadd -> add a b
  | Instr.Isub -> sub a b
  | Instr.Imul -> mul a b
  | Instr.Idiv -> if equal b 0L then trap Div_by_zero else div a b
  | Instr.Irem -> if equal b 0L then trap Div_by_zero else rem a b
  | Instr.Iand -> logand a b
  | Instr.Ior -> logor a b
  | Instr.Ixor -> logxor a b
  | Instr.Ishl -> shift_left a (to_int b land 63)
  | Instr.Ilshr -> shift_right_logical a (to_int b land 63)
  | Instr.Iashr -> shift_right a (to_int b land 63)
  | Instr.Irotl ->
    let s = to_int b land 63 in
    if s = 0 then a else logor (shift_left a s) (shift_right_logical a (64 - s))
  | Instr.Irotr ->
    let s = to_int b land 63 in
    if s = 0 then a else logor (shift_right_logical a s) (shift_left a (64 - s))
  | Instr.Imin -> if compare a b <= 0 then a else b
  | Instr.Imax -> if compare a b >= 0 then a else b

let eval_fbin op a b =
  match op with
  | Instr.Fadd -> a +. b
  | Instr.Fsub -> a -. b
  | Instr.Fmul -> a *. b
  | Instr.Fdiv -> a /. b
  | Instr.Fmin -> Float.min a b
  | Instr.Fmax -> Float.max a b
  | Instr.Fpow -> Float.pow a b

let eval_funop op a =
  match op with
  | Instr.FFneg -> -.a
  | Instr.FFabs -> Float.abs a
  | Instr.FFsqrt -> sqrt a
  | Instr.FFexp -> exp a
  | Instr.FFlog -> log a
  | Instr.FFsin -> sin a
  | Instr.FFcos -> cos a
  | Instr.FFfloor -> Float.floor a
  | Instr.FFceil -> Float.ceil a

let eval_iun op a =
  match op with
  | Instr.Ineg -> Int64.neg a
  | Instr.Inot -> Int64.lognot a

let eval_icmp c a b =
  let r = Int64.compare a b in
  match c with
  | Instr.Ceq -> r = 0
  | Instr.Cne -> r <> 0
  | Instr.Clt -> r < 0
  | Instr.Cle -> r <= 0
  | Instr.Cgt -> r > 0
  | Instr.Cge -> r >= 0

let eval_fcmp c a b =
  (* IEEE semantics: all ordered comparisons with NaN are false except <>. *)
  match c with
  | Instr.Ceq -> a = b
  | Instr.Cne -> a <> b
  | Instr.Clt -> a < b
  | Instr.Cle -> a <= b
  | Instr.Cgt -> a > b
  | Instr.Cge -> a >= b

let eval_cast c v =
  match c with
  | Instr.Itof -> Value.Float (Int64.to_float (as_int v))
  | Instr.Ftoi ->
    let x = as_float v in
    if Float.is_nan x || x >= int64_max_float || x < -.int64_max_float then
      trap Invalid_conversion
    else Value.Int (Int64.of_float x)
  | Instr.Fbits -> Value.Int (Int64.bits_of_float (as_float v))
  | Instr.Bitsf -> Value.Float (Int64.float_of_bits (as_int v))

(* Bounds-checked buffer access: the one place an out-of-range index
   becomes an [Out_of_bounds] trap. *)
let load_slot buffers slot idx =
  let store = buffers.(slot) in
  if idx < 0L || idx >= Int64.of_int (Array.length store) then trap Out_of_bounds
  else store.(Int64.to_int idx)

let store_slot buffers slot idx v =
  let store = buffers.(slot) in
  if idx < 0L || idx >= Int64.of_int (Array.length store) then trap Out_of_bounds
  else store.(Int64.to_int idx) <- v

let step regs buffers instr ~pc =
  match instr with
  | Instr.Mov (d, s) ->
    regs.(d) <- regs.(s);
    pc + 1
  | Instr.Iconst (d, v) ->
    regs.(d) <- Value.Int v;
    pc + 1
  | Instr.Fconst (d, v) ->
    regs.(d) <- Value.Float v;
    pc + 1
  | Instr.Ibin (op, d, a, b) ->
    regs.(d) <- Value.Int (eval_ibin op (as_int regs.(a)) (as_int regs.(b)));
    pc + 1
  | Instr.Fbin (op, d, a, b) ->
    regs.(d) <- Value.Float (eval_fbin op (as_float regs.(a)) (as_float regs.(b)));
    pc + 1
  | Instr.Iun (op, d, a) ->
    regs.(d) <- Value.Int (eval_iun op (as_int regs.(a)));
    pc + 1
  | Instr.Fun1 (op, d, a) ->
    regs.(d) <- Value.Float (eval_funop op (as_float regs.(a)));
    pc + 1
  | Instr.Icmp (c, d, a, b) ->
    regs.(d) <- Value.Int (if eval_icmp c (as_int regs.(a)) (as_int regs.(b)) then 1L else 0L);
    pc + 1
  | Instr.Fcmp (c, d, a, b) ->
    regs.(d) <-
      Value.Int (if eval_fcmp c (as_float regs.(a)) (as_float regs.(b)) then 1L else 0L);
    pc + 1
  | Instr.Cast (c, d, a) ->
    regs.(d) <- eval_cast c regs.(a);
    pc + 1
  | Instr.Select (d, c, a, b) ->
    regs.(d) <- (if as_int regs.(c) <> 0L then regs.(a) else regs.(b));
    pc + 1
  | Instr.Load (d, slot, i) ->
    regs.(d) <- load_slot buffers slot (as_int regs.(i));
    pc + 1
  | Instr.Store (slot, i, v) ->
    store_slot buffers slot (as_int regs.(i)) regs.(v);
    pc + 1
  | Instr.Jmp l -> l
  | Instr.Br (c, l1, l2) -> if as_int regs.(c) <> 0L then l1 else l2
  | Instr.Halt -> -1

(* The argument contract of {!exec} and {!exec_values}. *)
let check_args (kernel : Kernel.t) ~scalars ~buffers =
  if Array.length buffers <> List.length (Kernel.buffer_params kernel) then
    invalid_arg "Oracle.exec: buffer arity mismatch";
  let scalar_tys = List.map snd (Kernel.scalar_params kernel) in
  if List.length scalars <> List.length scalar_tys then
    invalid_arg "Oracle.exec: scalar arity mismatch";
  List.iter2
    (fun v ty ->
      if not (Value.ty_equal (Value.ty v) ty) then
        invalid_arg "Oracle.exec: scalar type mismatch")
    scalars scalar_tys

let exec (kernel : Kernel.t) ~scalars ~buffers ~budget ?decoded ?injection ?(burst = 1)
    ?trace () =
  check_args kernel ~scalars ~buffers;
  let regs = Array.make kernel.Kernel.nregs (Value.Int 0L) in
  List.iteri (fun i v -> regs.(i) <- v) scalars;
  let code = kernel.Kernel.code in
  let executed = ref 0 in
  let inj_dyn, inj_operand, inj_bit =
    match injection with
    | Some { at_dyn; operand; bit } -> (at_dyn, operand, bit)
    | None -> (-1, Odst, 0)
  in
  let record =
    match trace with
    | Some t -> fun pc -> Trace.add t pc
    | None -> fun _ -> ()
  in
  let flip_bits = burst_bits ~bit:inj_bit ~burst in
  let flip_reg r = List.iter (fun b -> regs.(r) <- Value.flip_bit regs.(r) b) flip_bits in
  (* Operand addressing for the flip: the decoded operand tables when the
     caller already paid for them (replays do), a non-allocating
     [Instr.src]/[Instr.dst_index] walk otherwise. *)
  let flip_src pc instr k =
    match decoded with
    | Some d ->
      let ss = Decode.srcs_at d pc in
      if k < Array.length ss then flip_reg ss.(k)
    | None -> (
      match Instr.src instr k with
      | Some r -> flip_reg r
      | None -> ())
  in
  let flip_dst pc instr =
    let d =
      match decoded with
      | Some dec -> Decode.dst_at dec pc
      | None -> Instr.dst_index instr
    in
    if d >= 0 then flip_reg d
  in
  let result =
    try
      let pc = ref 0 in
      let continue = ref true in
      let status = ref Finished in
      while !continue do
        if !executed >= budget then begin
          status := Out_of_budget;
          continue := false
        end
        else begin
          let instr = code.(!pc) in
          record !pc;
          let dyn = !executed in
          executed := dyn + 1;
          let injecting = dyn = inj_dyn in
          if injecting && inj_operand = Oskip then begin
            (* The faulted instruction is fetched (it records and counts)
               but never executed: control falls through, and running off
               the end of the code is a defined trap. *)
            let nx = !pc + 1 in
            if nx >= Array.length code then trap Type_confusion;
            pc := nx
          end
          else begin
            let instr =
              if not (injecting && inj_operand = Oenc) then instr
              else
                match decoded with
                | None ->
                  invalid_arg "Oracle.exec: an encoding injection requires ~decoded"
                | Some d -> (
                  match Decode.corrupt d ~pc:!pc ~bit:inj_bit with
                  | Some corrupted -> corrupted
                  | None -> trap Type_confusion)
            in
            if injecting then begin
              match inj_operand with
              | Osrc k -> flip_src !pc instr k
              | Odst | Oskip | Oenc -> ()
            end;
            let nx = step regs buffers instr ~pc:!pc in
            if injecting && inj_operand = Odst then flip_dst !pc instr;
            if nx < 0 then continue := false else pc := nx
          end
        end
      done;
      !status
    with Trap t -> Trapped t
  in
  telemetry_record result ~executed:!executed;
  { status = result; executed = !executed }

(* --- replays ---------------------------------------------------------------- *)

(* The boxed reference distance that {!Ff_vm.Ustate.buffer_distance} is
   held to: [stop_at] is the caller's SDC threshold, and once the running
   worst exceeds it the exact magnitude no longer matters, so the scan
   stops. The returned value is then only a witness that the threshold
   was crossed, not the true maximum. *)
let buffer_distance ?stop_at golden actual =
  let limit = match stop_at with None -> infinity | Some s -> s in
  let worst = ref 0.0 in
  let n = Array.length golden in
  let i = ref 0 in
  while !i < n && !worst <= limit do
    let d = Value.abs_diff golden.(!i) actual.(!i) in
    if d > !worst then worst := d;
    incr i
  done;
  !worst

(* A golden run's boundary states and scalar arguments, boxed once per
   golden run, so that a replay on {!Engine} times interpretation and
   not conversion. *)
type boxed = {
  states : Value.t array array array;
  scalars : Value.t list array;
}

let boxed_cache : (Golden.t, boxed) Ff_support.Ephemeron_cache.t =
  Ff_support.Ephemeron_cache.create 8

let boxed (golden : Golden.t) =
  Ff_support.Ephemeron_cache.find_or_compute boxed_cache golden (fun () ->
      let box (u : Ustate.t) =
        Array.init (Array.length u.Ustate.words) (Ustate.values u)
      in
      {
        states =
          Array.init
            (Array.length golden.Golden.sections + 1)
            (fun k -> box (Golden.state golden k));
        scalars =
          Array.map
            (fun (s : Golden.section_run) ->
              Program.scalar_args golden.Golden.program s.Golden.call)
            golden.Golden.sections;
      })

let golden_state golden k = (boxed golden).states.(k)

(* The boxed interpreter over a fresh boxed copy of the state, as a
   replay engine: the production replay driver runs over it unchanged. *)
module Engine : Replay.ENGINE with type t = Value.t array array = struct
  type t = Value.t array array

  let enter golden i ~whole:_ = Array.map Array.copy (golden_state golden i)

  let mem_flip (state : t) { Replay.mf_buffer; mf_elem; mf_bits } =
    if mf_buffer >= 0 && mf_buffer < Array.length state then begin
      let buf = state.(mf_buffer) in
      if mf_elem >= 0 && mf_elem < Array.length buf then
        buf.(mf_elem) <- List.fold_left Value.flip_bit buf.(mf_elem) mf_bits
    end

  let exec (golden : Golden.t) (state : t) i ~injection ~burst ~budget =
    let section = golden.Golden.sections.(i) in
    let buffers = Array.map (fun (idx, _) -> state.(idx)) section.Golden.bindings in
    exec section.Golden.kernel ~scalars:(boxed golden).scalars.(i) ~buffers ~budget
      ~decoded:section.Golden.decoded ?injection ~burst ()

  let distance golden k (state : t) idx =
    buffer_distance (golden_state golden k).(idx) state.(idx)

  let differs golden k (state : t) idx =
    buffer_distance ~stop_at:0.0 (golden_state golden k).(idx) state.(idx) > 0.0

  let nonfinite (state : t) idx =
    Array.exists (fun v -> not (Value.is_finite v)) state.(idx)

  let equal golden k (state : t) =
    Array.for_all2 (Array.for_all2 Value.equal) state (golden_state golden k)
end

include Replay.Driver (Engine)

(* --- whole-program runs ------------------------------------------------------ *)

type golden_section = {
  trace : int array;
  dyn_count : int;
  entry_state : Value.t array array;
  input_hash : int64;
}

type golden = {
  program : Program.t;
  sections : golden_section array;
  final_state : Value.t array array;
  total_dyn : int;
}

let input_hash scalars bindings state =
  let h = Ff_support.Hashing.create () in
  List.iter (Value.hash_fold h) scalars;
  Array.iter
    (fun (buf_idx, role) ->
      if Kernel.role_readable role then begin
        Ff_support.Hashing.add_int h buf_idx;
        Array.iter (Value.hash_fold h) state.(buf_idx)
      end)
    bindings;
  Ff_support.Hashing.value h

(* The golden run as the boxed interpreter computes it: one boxed program
   state, each section's slots bound to that state's arrays (so slots
   bound to one buffer alias), snapshots deep-copied at every section
   boundary. *)
let golden_run ?(budget_per_section = 50_000_000) (program : Program.t) =
  let copy_state state = Array.map Array.copy state in
  let state =
    Array.of_list
      (List.map (fun b -> Array.copy b.Program.buf_init) program.Program.buffers)
  in
  let total_dyn = ref 0 in
  let sections =
    List.map
      (fun call ->
        let callee = call.Program.callee in
        let kernel = Option.get (Program.find_kernel program callee) in
        let decoded = Decode.of_kernel kernel in
        let scalars = Program.scalar_args program call in
        let bindings = Array.of_list (Program.buffer_args program call) in
        let entry_state = copy_state state in
        let input_hash = input_hash scalars bindings state in
        let buffers = Array.map (fun (idx, _) -> state.(idx)) bindings in
        let trace = Trace.create () in
        let run =
          exec kernel ~scalars ~buffers ~budget:budget_per_section ~decoded ~trace ()
        in
        if run.status <> Finished then
          failwith
            (Format.asprintf "Oracle.golden_run: section %s ended %a"
               call.Program.call_label pp_status run.status);
        total_dyn := !total_dyn + run.executed;
        { trace = Trace.to_array trace; dyn_count = run.executed; entry_state; input_hash })
      program.Program.schedule
  in
  {
    program;
    sections = Array.of_list sections;
    final_state = copy_state state;
    total_dyn = !total_dyn;
  }

let outputs g =
  Program.output_buffers g.program
  |> List.map (fun (i, b) -> (i, b.Program.buf_name, g.final_state.(i)))

(* --- the unboxed engine over boxed buffers ------------------------------------ *)

let exec_values (d : Decode.t) ~scalars ~(buffers : Value.t array array) ~budget
    ?injection ?burst ?trace () =
  check_args d.Decode.kernel ~scalars ~buffers;
  let nregs = max 1 d.Decode.nregs in
  let regs = Ustate.make_words nregs and rtags = Bytes.make nregs Ustate.tag_int in
  let scal_words, scal_tags = Ustate.scalars_of_values scalars in
  (* One mirror per physically distinct buffer, so that slots bound to
     one buffer alias in the run as they do in {!exec}. *)
  let n = Array.length buffers in
  let uwords = Array.make n (Ustate.make_words 0) and utags = Array.make n Bytes.empty in
  for i = 0 to n - 1 do
    let rec first j = if buffers.(j) == buffers.(i) then j else first (j + 1) in
    let j = first 0 in
    if j < i then begin
      uwords.(i) <- uwords.(j);
      utags.(i) <- utags.(j)
    end
    else begin
      let w, t = Ustate.of_values buffers.(i) in
      uwords.(i) <- w;
      utags.(i) <- t
    end
  done;
  let run =
    Unboxed.exec d ~regs ~rtags ~scal_words ~scal_tags ~buffers:uwords ~btags:utags
      ~budget ?injection ?burst ?trace ()
  in
  Array.iteri
    (fun i buf ->
      Array.iteri
        (fun j _ ->
          buf.(j) <- Ustate.value_of (A1.get uwords.(i) j) (Bytes.get utags.(i) j))
        buf)
    buffers;
  run
