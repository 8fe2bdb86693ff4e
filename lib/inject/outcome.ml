open Ff_vm

type detected_kind =
  | Crash
  | Timed_out
  | Misformatted

type section_outcome =
  | S_detected of detected_kind
  | S_sdc of (int * float) array

type final_outcome =
  | F_detected of detected_kind
  | F_sdc of (int * float) list

let section_is_masked = function
  | S_detected _ -> false
  | S_sdc magnitudes -> Array.for_all (fun (_, m) -> m = 0.0) magnitudes

let final_is_masked = function
  | F_detected _ -> false
  | F_sdc magnitudes -> List.for_all (fun (_, m) -> m = 0.0) magnitudes

let final_is_bad ~epsilon = function
  | F_detected _ -> false
  | F_sdc magnitudes -> List.exists (fun (_, m) -> m > epsilon) magnitudes

let float_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let magnitude_equal (i, m) (j, n) = i = j && float_equal m n

let section_equal a b =
  match (a, b) with
  | S_detected x, S_detected y -> x = y
  | S_sdc xs, S_sdc ys ->
    Array.length xs = Array.length ys && Array.for_all2 magnitude_equal xs ys
  | S_detected _, S_sdc _ | S_sdc _, S_detected _ -> false

let final_equal a b =
  match (a, b) with
  | F_detected x, F_detected y -> x = y
  | F_sdc xs, F_sdc ys -> List.equal magnitude_equal xs ys
  | F_detected _, F_sdc _ | F_sdc _, F_detected _ -> false

(* [Hashtbl.hash] folds -0.0 into 0.0 and every NaN into one value, so
   bit-equal outcomes always land in one bucket; [equal] then keeps the
   bit patterns apart. *)
let interner (type o) (equal : o -> o -> bool) () =
  let module H = Hashtbl.Make (struct
    type t = o

    let equal = equal
    let hash = Hashtbl.hash
  end) in
  let held = H.create 64 in
  fun outcome ->
    match H.find_opt held outcome with
    | Some first -> first
    | None ->
      H.add held outcome outcome;
      outcome

let section_interner () = interner section_equal ()
let final_interner () = interner final_equal ()

let detected_of_anomaly = function
  | Replay.Trap _ -> Crash
  | Replay.Timeout -> Timed_out

let of_section_replay (r : Replay.section_replay) =
  match r.Replay.s_anomaly with
  | Some a -> S_detected (detected_of_anomaly a)
  | None ->
    if r.Replay.s_nonfinite then S_detected Misformatted
    else if r.Replay.s_side_effect then
      (* A live value outside the declared outputs changed (§4.9):
         surfaced as an unbounded SDC so it is never treated as benign. *)
      S_sdc (Array.map (fun (idx, _) -> (idx, infinity)) r.Replay.s_output_sdc)
    else S_sdc r.Replay.s_output_sdc

let of_program_replay (r : Replay.program_replay) =
  match r.Replay.p_anomaly with
  | Some a -> F_detected (detected_of_anomaly a)
  | None ->
    if r.Replay.p_nonfinite then F_detected Misformatted else F_sdc r.Replay.p_final_sdc

let pp_detected fmt kind =
  Format.pp_print_string fmt
    (match kind with
    | Crash -> "crash"
    | Timed_out -> "timeout"
    | Misformatted -> "misformatted")

let pp_magnitudes fmt pairs =
  Format.fprintf fmt "[%s]"
    (String.concat "; " (List.map (fun (i, m) -> Printf.sprintf "b%d:%g" i m) pairs))

let pp_section fmt = function
  | S_detected k -> Format.fprintf fmt "detected(%a)" pp_detected k
  | S_sdc ms ->
    if section_is_masked (S_sdc ms) then Format.pp_print_string fmt "masked"
    else Format.fprintf fmt "sdc%a" pp_magnitudes (Array.to_list ms)

let pp_final fmt = function
  | F_detected k -> Format.fprintf fmt "detected(%a)" pp_detected k
  | F_sdc ms ->
    if final_is_masked (F_sdc ms) then Format.pp_print_string fmt "masked"
    else Format.fprintf fmt "sdc%a" pp_magnitudes ms
