let geomean = function
  | [] -> 0.0
  | xs ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value";
          acc +. log x)
        0.0 xs
    in
    exp (log_sum /. float_of_int (List.length xs))

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    arr.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs
