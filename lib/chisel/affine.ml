type var = {
  section : int;
  buffer : int;
}

let compare_var a b =
  match compare a.section b.section with 0 -> compare a.buffer b.buffer | c -> c

type t = (var * float) list
(* invariant: sorted by [compare_var], all coefficients > 0 (possibly ∞) *)

let zero = []

let var v = [ (v, 1.0) ]

let scale c e =
  if c = 0.0 then []
  else List.map (fun (v, k) -> (v, c *. k)) e

let rec add a b =
  match (a, b) with
  | [], e | e, [] -> e
  | (va, ca) :: ra, (vb, cb) :: rb -> (
    match compare_var va vb with
    | 0 -> (va, ca +. cb) :: add ra rb
    | c when c < 0 -> (va, ca) :: add ra b
    | _ -> (vb, cb) :: add a rb)

let coeff e v =
  match List.assoc_opt v e with Some c -> c | None -> 0.0

let vars e = List.map fst e

let restrict_section e section = List.filter (fun (v, _) -> v.section = section) e

let eval e assignment =
  List.fold_left
    (fun acc (v, c) ->
      let x = assignment v in
      if x = 0.0 then acc else acc +. (c *. x))
    0.0 e

let is_zero e = e = []

let equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (va, ca) (vb, cb) ->
         compare_var va vb = 0 && Int64.equal (Int64.bits_of_float ca) (Int64.bits_of_float cb))
       a b

let pp fmt = function
  | [] -> Format.pp_print_string fmt "0"
  | e ->
    Format.pp_print_string fmt
      (String.concat " + "
         (List.map
            (fun (v, c) ->
              Printf.sprintf "%.4g*phi(s%d,b%d)" c v.section v.buffer)
            e))
