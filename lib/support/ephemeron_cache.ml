type ('k, 'v) t = {
  entries : ('k, 'v) Ephemeron.K1.t list Atomic.t;
  cap : int;
}

let create cap = { entries = Atomic.make []; cap = max 1 cap }

let find key = List.find_map (fun e -> Ephemeron.K1.query e key)

let find_or_compute t key compute =
  match find key (Atomic.get t.entries) with
  | Some v -> v
  | None ->
    let v = compute () in
    let rec publish () =
      let cur = Atomic.get t.entries in
      match find key cur with
      | Some winner -> winner
      | None ->
        let kept =
          if List.length cur >= t.cap then List.filteri (fun i _ -> i < t.cap - 1) cur
          else cur
        in
        if Atomic.compare_and_set t.entries cur (Ephemeron.K1.make key v :: kept) then v
        else publish ()
    in
    publish ()
