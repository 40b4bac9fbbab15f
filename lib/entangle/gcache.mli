(** Dependency-tracked grounding cache.

    Every coordination round used to re-run {!Ground.compute} from
    scratch for every dormant entangled query, even though between
    rounds most of the database is untouched. This cache memoizes the
    expensive half of grounding — valuation enumeration — keyed by the
    query {e body} plus the host-variable bindings it references, so
    structurally identical queries issued by different transactions
    (the common case: per-instance tags live in the head/post, not the
    body) share one computation.

    Soundness rests on two pieces:

    - each miss records the tables its enumeration read, in first-read
      order, with each table's identity and write version;
    - the storage layer bumps a table's version on every row write,
      rollback compensation and structural change
      ({!Ent_storage.Table.version}).

    A cached entry is served only when every table it read is still
    the same object at the same version. Any write to one of them
    invalidates the entry, whichever rows it touched, as do new indexes
    and dropped or re-created tables.

    Validation is per table because grounding reads are quasi reads
    at table granularity (§3.3.3): they take table-S locks and are
    re-validated by coordination rather than creating row-level read
    dependencies. A hit therefore replays the lock side effects through
    [touch] (same tables, first-read order) without re-reading any
    rows. *)

type t

(** [create catalog] makes an empty cache over [catalog]'s live
    tables. It holds at most 4096 entries and resets wholesale when
    full. *)
val create : Ent_storage.Catalog.t -> t

(** [compute t ~access ~touch ~env query] returns [query]'s groundings
    and whether they were served from cache. On a miss the enumeration
    runs through [access] (recording the footprint); on a hit [touch]
    is called with the footprint's table names in first-read order so
    the caller can re-acquire grounding locks — it must raise (like the
    blocked/deadlocked access reads would) to veto the hit.

    [bypass] (default false) skips the cache entirely — no lookup, no
    insertion, no hit/miss accounting — and runs the enumeration fresh
    through [access]. Used for snapshot-isolation grounding, whose
    reads see an older snapshot than the live table versions the
    version validation is keyed to.
    @raise Ground.Ground_error and whatever [access]/[touch] raise. *)
val compute :
  t ->
  ?limit:int ->
  ?bypass:bool ->
  access:Ent_sql.Eval.access ->
  touch:(string list -> unit) ->
  env:Ent_sql.Eval.env ->
  Ir.t ->
  Ground.grounding list * bool

(** (hits, misses, invalidations) since [create]. *)
val stats : t -> int * int * int

(** Live entry count. *)
val size : t -> int

(** Length of the entry table's longest hash bucket: the most keys one
    lookup can compare against. It stays small only while the key hash
    reaches the literals that tell the entries of one query shape
    apart. *)
val longest_bucket : t -> int
