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

let same_group t a b = find t a = find t b
let entangled t id = List.length (members t id) > 1
let reset t = Hashtbl.reset t.parent

let group_by t id_of items =
  let buckets = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun item ->
      let root = find t (id_of item) in
      match Hashtbl.find_opt buckets root with
      | Some bucket -> bucket := item :: !bucket
      | None ->
        let bucket = ref [ item ] in
        Hashtbl.add buckets root bucket;
        order := bucket :: !order)
    items;
  List.rev_map (fun bucket -> List.rev !bucket) !order

let components id_of answered =
  let uf = create () in
  let providers = Hashtbl.create 64 in
  List.iter
    (fun (item, (g : Ent_entangle.Ground.grounding)) ->
      List.iter
        (fun atom ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt providers atom) in
          Hashtbl.replace providers atom (id_of item :: existing))
        g.g_head)
    answered;
  List.iter
    (fun (item, (g : Ent_entangle.Ground.grounding)) ->
      List.iter
        (fun atom ->
          match Hashtbl.find_opt providers atom with
          | Some owners -> join uf (id_of item :: owners)
          | None -> ())
        g.g_post)
    answered;
  group_by uf (fun (item, _) -> id_of item) answered

let entangle t engine ~event ~txn_of ids =
  join t ids;
  (match ids with
  | first :: _ ->
    let group = members t first in
    let tag = List.fold_left min max_int group in
    List.iter
      (fun id ->
        Option.iter
          (fun txn -> Ent_txn.Engine.set_lock_group engine ~txn ~group:tag)
          (txn_of id))
      group
  | [] -> ());
  Ent_txn.Engine.log_entangle_group engine ~event
    ~members:(List.filter_map txn_of ids)
