type t = {
  mutable data : int array;
  mutable len : int;
}

let create () = { data = Array.make 256 0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let to_array t = Array.sub t.data 0 t.len
