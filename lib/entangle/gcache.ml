open Ent_storage
module Obs = Ent_obs.Obs

let m_hits = Obs.counter "entangle.gcache.hits"
let m_misses = Obs.counter "entangle.gcache.misses"
let m_invalidations = Obs.counter "entangle.gcache.invalidations"
let m_footprint = Obs.histogram "entangle.gcache.footprint"

(* One table a grounding computation read, at table granularity: the
   grounding reads are quasi reads under table-S locks (§3.3.3). *)
type table_entry = {
  te_name : string;
  te_table : Table.t;  (* physical identity at record time *)
  te_version : int;
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

(* [Hashtbl.hash] stops after 10 meaningful words, all near the root
   of the body, so the keys of one query shape (every friend pair, say)
   would share one bucket and each lookup would compare against all of
   them. Hash deep enough to reach the literals that tell them apart. *)
module Entries = Hashtbl.Make (struct
  type t = key

  let equal = ( = )
  let hash = Hashtbl.hash_param 256 256
end)

type t = {
  catalog : Catalog.t;
  entries : entry Entries.t;
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
    entries = Entries.create 64;
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
let size t = Entries.length t.entries

let longest_bucket t =
  with_mu t.mu (fun () -> (Entries.stats t.entries).max_bucket_length)

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

(* Wrap an access so every read path notes the table it reads before
   streaming. Reads are noted at sequence creation: an eager
   over-approximation, which is always sound. *)
let recording (access : Ent_sql.Eval.access) =
  let order = ref [] in
  let note name = if not (List.mem name !order) then order := name :: !order in
  let raccess =
    {
      access with
      scan =
        (fun name ->
          note name;
          access.scan name);
      lookup =
        (fun name ~positions key ->
          note name;
          access.lookup name ~positions key);
      range =
        (fun name ~position ~lo ~hi ->
          note name;
          access.range name ~position ~lo ~hi);
    }
  in
  let finish catalog =
    List.rev_map
      (fun name ->
        match Catalog.find catalog name with
        | Some table ->
          { te_name = name; te_table = table; te_version = Table.version table }
        | None ->
          (* the access resolved a name the catalog no longer has; only
             reachable through hostile interleaving — never cache it *)
          raise Exit)
      !order
  in
  (raccess, finish)

(* --- invalidation --- *)

let table_entry_valid t te =
  match Catalog.find t.catalog te.te_name with
  | Some table -> table == te.te_table && Table.version table = te.te_version
  | None -> false  (* dropped table *)

let entry_valid t entry = List.for_all (table_entry_valid t) entry.e_tables

(* --- the cache --- *)

(* Soundness under parallelism: groundings only read (table-S locks),
   and the scheduler grounds pending tasks in a phase of its own where
   no transaction is stepping, so a validated entry cannot be
   invalidated by a concurrent writer between validation and [touch]. *)
let compute t ?(limit = 10_000) ?(bypass = false) ~access ~touch ~env
    (query : Ir.t) =
  if bypass then
    (* Snapshot-isolation grounding: the version validation above is
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
        match Entries.find_opt t.entries key with
        | Some entry when entry_valid t entry ->
          t.hits <- t.hits + 1;
          Obs.incr m_hits;
          Some entry
        | found ->
          (match found with
          | Some _ ->
            Entries.remove t.entries key;
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
          if Entries.length t.entries >= max_entries then
            Entries.reset t.entries;
          Entries.replace t.entries key
            { e_valuations = vals; e_tables = tables };
          Obs.observe m_footprint (float_of_int (List.length tables)))
    | exception Exit -> ());
    (Ground.groundings_of query vals, false)
