module Hashing = Ff_support.Hashing

type t =
  | Bitflip of { burst : int }
  | Skip
  | Opcode
  | Memflip of { burst : int }

let default = Bitflip { burst = 1 }

let name = function
  | Bitflip _ -> "bitflip"
  | Skip -> "skip"
  | Opcode -> "opcode"
  | Memflip _ -> "memflip"

let to_string = function
  | Bitflip { burst = 1 } -> "bitflip"
  | Bitflip { burst } -> Printf.sprintf "bitflip:%d" burst
  | Skip -> "skip"
  | Opcode -> "opcode"
  | Memflip { burst = 1 } -> "memflip"
  | Memflip { burst } -> Printf.sprintf "memflip:%d" burst

let check_burst burst =
  if burst < 1 || burst > 64 then
    Error (Printf.sprintf "burst width %d out of range 1..64" burst)
  else Ok burst

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let base, param =
    match String.index_opt s ':' with
    | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
    | None -> (s, None)
  in
  let with_burst mk =
    match param with
    | None -> Ok (mk 1)
    | Some p -> (
      match int_of_string_opt p with
      | Some b -> Result.map mk (check_burst b)
      | None -> Error (Printf.sprintf "invalid burst width %S" p))
  in
  let no_param model =
    match param with
    | None -> Ok model
    | Some _ -> Error (Printf.sprintf "fault model %s takes no parameter" base)
  in
  match base with
  | "bitflip" | "burst" -> with_burst (fun burst -> Bitflip { burst })
  | "skip" -> no_param Skip
  | "opcode" -> no_param Opcode
  | "memflip" -> with_burst (fun burst -> Memflip { burst })
  | _ ->
    Error
      (Printf.sprintf "unknown fault model %S (expected bitflip[:N], skip, opcode or memflip[:N])"
         base)

let of_string_exn s =
  match of_string s with Ok m -> m | Error e -> invalid_arg ("Fault_model.of_string: " ^ e)

let reg_burst = function Bitflip { burst } -> burst | Skip | Opcode | Memflip _ -> 1

let equal (a : t) (b : t) = a = b

(* Store-key contribution. The default single-bit register flip must hash
   exactly as the former [Campaign.config.burst] integer did — one
   [add_int burst] — so every pre-existing store record, checkpoint
   journal, and serve-cache digest stays warm. The other models use
   negative discriminants, which no legal burst width (>= 1) can ever
   produce, so distinct models can never collide. *)
let hash_fold h = function
  | Bitflip { burst } -> Hashing.add_int h burst
  | Skip -> Hashing.add_int h (-101)
  | Opcode -> Hashing.add_int h (-102)
  | Memflip { burst } ->
    Hashing.add_int h (-103);
    Hashing.add_int h burst

(* The canonical model set exercised by the faults smoke script and the
   [bench/main.exe faults] artifact: one instance per constructor, plus a
   multi-bit burst to cover the generalized XOR path. *)
let builtin = [ Bitflip { burst = 1 }; Bitflip { burst = 4 }; Skip; Opcode; Memflip { burst = 1 } ]
