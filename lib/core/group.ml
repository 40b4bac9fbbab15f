type t = { parent : (int, int) Hashtbl.t }

let create () = { parent = Hashtbl.create 32 }

let rec find t x =
  match Hashtbl.find_opt t.parent x with
  | None ->
    Hashtbl.replace t.parent x x;
    x
  | Some p when p = x -> x
  | Some p ->
    let root = find t p in
    Hashtbl.replace t.parent x root;
    root

let join t ids =
  match ids with
  | [] -> ()
  | first :: rest ->
    let root = find t first in
    List.iter (fun id -> Hashtbl.replace t.parent (find t id) root) rest

let members t id =
  let root = find t id in
  let out =
    Hashtbl.fold
      (fun x _ acc -> if find t x = root then x :: acc else acc)
      t.parent []
  in
  let out = if List.mem id out then out else id :: out in
  List.sort_uniq Int.compare out

let root = find
let same_group t a b = find t a = find t b
let entangled t id = List.length (members t id) > 1
let reset t = Hashtbl.reset t.parent
