type t = { clocks : float array }

let create ~connections =
  if connections <= 0 then invalid_arg "Pool.create: connections must be positive";
  { clocks = Array.make connections 0.0 }

let connections t = Array.length t.clocks

let add_work t conn work = t.clocks.(conn) <- t.clocks.(conn) +. work

let now t = Array.fold_left Float.max 0.0 t.clocks

let barrier t work =
  let m = now t +. work in
  Array.fill t.clocks 0 (Array.length t.clocks) m

let advance_to t time =
  Array.iteri (fun i c -> if c < time then t.clocks.(i) <- time) t.clocks

let loads t = Array.copy t.clocks
