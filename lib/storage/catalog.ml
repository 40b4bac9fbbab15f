type t = {
  tables : (string, Table.t) Hashtbl.t;
  chains : bool Atomic.t;  (* every table's version-chain switch *)
}

let create () = { tables = Hashtbl.create 16; chains = Atomic.make false }
let enable_chains t = Atomic.set t.chains true
let chains_enabled t = Atomic.get t.chains

let create_table t name schema =
  if Hashtbl.mem t.tables name then
    invalid_arg ("Catalog.create_table: table exists: " ^ name);
  let table = Table.create ~name ~chains:t.chains schema in
  Hashtbl.add t.tables name table;
  table

let find t name = Hashtbl.find_opt t.tables name
let find_exn t name = Hashtbl.find t.tables name
let mem t name = Hashtbl.mem t.tables name
let drop t name = Hashtbl.remove t.tables name

let table_names t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [])

let iter f t =
  List.iter (fun name -> f name (Hashtbl.find t.tables name)) (table_names t)
