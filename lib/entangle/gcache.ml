open Ent_storage
module Obs = Ent_obs.Obs

let m_hits = Obs.counter "entangle.gcache.hits"
let m_misses = Obs.counter "entangle.gcache.misses"
let m_invalidations = Obs.counter "entangle.gcache.invalidations"
let m_footprint = Obs.histogram "entangle.gcache.footprint"

(* One recorded read of a grounding computation. [Scan] covers the
   whole table; [Point]/[Range] are keyed sub-reads whose results can
   only change when a write touches a matching row. *)
type read =
  | Scan
  | Point of int list * Value.t list
  | Range of int * Ordered_index.bound * Ordered_index.bound

type table_entry = {
  te_name : string;
  te_table : Table.t;  (* physical identity at record time *)
  mutable te_version : int;
  te_reads : read list;
}

type entry = {
  e_valuations : Ground.valuation list;
  e_tables : table_entry list;  (* first-read order *)
}

(* Two grounding computations coincide iff body, the host bindings the
   body mentions, and the exploration limit coincide — the per-query
   head/post substitution happens after the cache. Keys are compared
   structurally ([Value.t] has no floats, so polymorphic equality and
   hashing are exact). *)
(* The fields are only ever read by the polymorphic hash/equality of
   the entries table, hence the unused-field waiver. *)
type key = {
  k_body : Ent_sql.Ast.cond;
  k_env : (string * Value.t option) list;  (* sorted by host-var name *)
  k_limit : int;
} [@@warning "-69"]

type t = {
  catalog : Catalog.t;
  entries : (key, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  (* Guards [entries] and the counters: groundings for independent
     pending tasks run concurrently on worker domains. Validation and
     insertion happen under [mu]; the expensive part (valuation
     enumeration, lock acquisition via [touch]) runs outside it. *)
  mu : Mutex.t;
}

(* Entry bound: the cache resets wholesale when full. *)
let max_entries = 4096

let create catalog =
  {
    catalog;
    entries = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    invalidations = 0;
    mu = Mutex.create ();
  }

let with_mu mu f =
  Mutex.lock mu;
  match f () with
  | v -> Mutex.unlock mu; v
  | exception e -> Mutex.unlock mu; raise e

let stats t = (t.hits, t.misses, t.invalidations)
let size t = Hashtbl.length t.entries

(* --- host variables referenced by a body --- *)

let rec expr_hosts acc (e : Ent_sql.Ast.expr) =
  match e with
  | Lit _ | Col _ | Agg (_, None) -> acc
  | Host name -> name :: acc
  | Binop (_, a, b) -> expr_hosts (expr_hosts acc a) b
  | Agg (_, Some a) -> expr_hosts acc a

let rec cond_hosts acc (c : Ent_sql.Ast.cond) =
  match c with
  | True -> acc
  | Cmp (_, a, b) -> expr_hosts (expr_hosts acc a) b
  | And (a, b) | Or (a, b) -> cond_hosts (cond_hosts acc a) b
  | Not a -> cond_hosts acc a
  | In_select (exprs, sub) ->
    select_hosts (List.fold_left expr_hosts acc exprs) sub
  | In_list (e, values) -> List.fold_left expr_hosts (expr_hosts acc e) values
  | Between (e, lo, hi) -> expr_hosts (expr_hosts (expr_hosts acc e) lo) hi
  | In_answer (exprs, _) -> List.fold_left expr_hosts acc exprs

and select_hosts acc (sel : Ent_sql.Ast.select) =
  let acc =
    List.fold_left
      (fun acc (p : Ent_sql.Ast.proj) -> expr_hosts acc p.pexpr)
      acc sel.projs
  in
  let acc = cond_hosts acc sel.where in
  let acc = List.fold_left expr_hosts acc sel.group_by in
  List.fold_left (fun acc (e, _) -> expr_hosts acc e) acc sel.order_by

let key_of ~env ~limit body =
  let hosts = List.sort_uniq String.compare (cond_hosts [] body) in
  {
    k_body = body;
    k_env = List.map (fun name -> (name, Hashtbl.find_opt env name)) hosts;
    k_limit = limit;
  }

(* --- footprint recording --- *)

(* Wrap an access so every read path notes (table, read shape) before
   streaming. Reads are noted at sequence creation: an eager
   over-approximation, which is always sound. *)
let recording (access : Ent_sql.Eval.access) =
  let order = ref [] in
  let by_name : (string, read list ref) Hashtbl.t = Hashtbl.create 4 in
  let note name read =
    let reads =
      match Hashtbl.find_opt by_name name with
      | Some reads -> reads
      | None ->
        let reads = ref [] in
        Hashtbl.add by_name name reads;
        order := name :: !order;
        reads
    in
    if not (List.mem read !reads) then reads := read :: !reads
  in
  let raccess =
    {
      access with
      scan =
        (fun name ->
          note name Scan;
          access.scan name);
      lookup =
        (fun name ~positions key ->
          note name (Point (positions, key));
          access.lookup name ~positions key);
      range =
        (fun name ~position ~lo ~hi ->
          note name (Range (position, lo, hi));
          access.range name ~position ~lo ~hi);
    }
  in
  let finish catalog =
    List.rev_map
      (fun name ->
        match Catalog.find catalog name with
        | Some table ->
          {
            te_name = name;
            te_table = table;
            te_version = Table.version table;
            te_reads = !(Hashtbl.find by_name name);
          }
        | None ->
          (* the access resolved a name the catalog no longer has; only
             reachable through hostile interleaving — never cache it *)
          raise Exit)
      !order
  in
  (raccess, finish)

(* --- invalidation --- *)

let in_bounds ~lo ~hi v =
  (match lo with
  | Ordered_index.Unbounded -> true
  | Ordered_index.Inclusive b -> Value.compare v b >= 0
  | Ordered_index.Exclusive b -> Value.compare v b > 0)
  &&
  match hi with
  | Ordered_index.Unbounded -> true
  | Ordered_index.Inclusive b -> Value.compare v b <= 0
  | Ordered_index.Exclusive b -> Value.compare v b < 0

let read_touches_row read row =
  match read with
  | Scan -> true
  | Point (positions, key) ->
    List.equal Value.equal (List.map (fun i -> Tuple.get row i) positions) key
  | Range (position, lo, hi) -> in_bounds ~lo ~hi (Tuple.get row position)

let change_intersects reads (c : Table.change) =
  let side = function
    | None -> false
    | Some row -> List.exists (fun read -> read_touches_row read row) reads
  in
  side c.c_before || side c.c_after

let table_entry_valid t te =
  match Catalog.find t.catalog te.te_name with
  | Some table when table == te.te_table -> (
    Table.version table = te.te_version
    ||
    match Table.changes_since table te.te_version with
    | None -> false  (* changelog truncated or structural change *)
    | Some changes ->
      not (List.exists (change_intersects te.te_reads) changes))
  | _ -> false  (* dropped or re-created table *)

let entry_valid t entry = List.for_all (table_entry_valid t) entry.e_tables

(* After a successful validation, fast-forward the recorded versions so
   the next round does not re-scan the same (non-intersecting)
   changelog suffix. *)
let refresh entry =
  List.iter (fun te -> te.te_version <- Table.version te.te_table) entry.e_tables

(* --- the cache --- *)

(* Soundness under parallelism: groundings only read (table-S locks),
   and the scheduler grounds pending tasks in a phase of its own where
   no transaction is stepping, so a validated entry cannot be
   invalidated by a concurrent writer between validation and [touch]. *)
let compute t ?(limit = 10_000) ?(bypass = false) ~access ~touch ~env
    (query : Ir.t) =
  if bypass then
    (* Snapshot-isolation grounding: the footprint validation above is
       keyed to LIVE table versions, but the caller reads an older
       snapshot — neither serving nor populating the cache is sound.
       Run the enumeration fresh; [touch] is unused (snapshot reads
       take no locks). *)
    let vals = Ground.valuations ~limit ~access ~env query.body in
    (Ground.groundings_of query vals, false)
  else
  let key = key_of ~env ~limit query.body in
  let cached =
    with_mu t.mu (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some entry when entry_valid t entry ->
          refresh entry;
          t.hits <- t.hits + 1;
          Obs.incr m_hits;
          Some entry
        | found ->
          (match found with
          | Some _ ->
            Hashtbl.remove t.entries key;
            t.invalidations <- t.invalidations + 1;
            Obs.incr m_invalidations
          | None -> ());
          t.misses <- t.misses + 1;
          Obs.incr m_misses;
          None)
  in
  match cached with
  | Some entry ->
    (* reproduce the grounding-lock side effects before serving; may
       raise Blocked/Deadlock_victim exactly like a recomputation *)
    touch (List.map (fun te -> te.te_name) entry.e_tables);
    (Ground.groundings_of query entry.e_valuations, true)
  | None ->
    let raccess, finish = recording access in
    let vals = Ground.valuations ~limit ~access:raccess ~env query.body in
    (match finish t.catalog with
    | tables ->
      with_mu t.mu (fun () ->
          if Hashtbl.length t.entries >= max_entries then
            Hashtbl.reset t.entries;
          Hashtbl.replace t.entries key
            { e_valuations = vals; e_tables = tables };
          Obs.observe m_footprint
            (float_of_int
               (List.fold_left
                  (fun acc te -> acc + List.length te.te_reads)
                  0 tables)))
    | exception Exit -> ());
    (Ground.groundings_of query vals, false)
