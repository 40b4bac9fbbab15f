(** Heap tables: rows addressed by dense integer row ids, with
    maintained hash indexes.

    Row ids are assigned in insertion order and never reused, which
    gives deterministic scan order — important for reproducible
    experiment runs and for the deterministic-evaluation assumption the
    paper's serializability proof relies on (§C.1). *)

type t

type row_id = int

(** Concurrency: inside a parallel region ({!Ent_obs.Region.running})
    mutators take a per-table mutex and lazy read paths materialize
    their result under it (an IS-locked index probe may otherwise race
    a compatible IX writer's index maintenance). Outside a region only
    one domain runs and every path is the original lock-free lazy
    code.

    Version chains: a table pushes a writer-tagged before-image onto
    the row's version chain on every mutation once its [chains] switch
    is on, enabling the [_at] snapshot read paths below. The switch is
    shared by every table of one catalog and turned on, for good, by
    {!Catalog.enable_chains}; while it is off no chain is touched and
    the table behaves exactly as an unversioned one. *)

(** [create ?chains schema] makes an empty table. [chains] is the
    version-chain switch it reads (its catalog's); without one the
    table gets a private switch that stays off. *)
val create : ?name:string -> ?chains:bool Atomic.t -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

(** Monotonic write version: bumped by every row mutation (including
    rollback compensations) and by structural changes (new indexes,
    {!clear}). Equal versions imply an identical visible table state,
    which is all the grounding cache validates against: the table keeps
    no history of which rows changed. *)
val version : t -> int

(** [insert t row] checks the row against the schema and returns its
    fresh row id. [writer] tags the version-chain entry once chains are
    on (0 — the default — is bootstrap/recovery, visible to every
    snapshot) and is ignored otherwise; likewise for the other
    mutators below. *)
val insert : ?writer:int -> t -> Tuple.t -> row_id

(** [get t id] is [Some row] for a live row, [None] for a deleted or
    never-assigned id. *)
val get : t -> row_id -> Tuple.t option

(** [delete t id] removes a live row and returns its old value. *)
val delete : ?writer:int -> t -> row_id -> Tuple.t option

(** [update t id row] replaces a live row, maintaining indexes, and
    returns the old value. *)
val update : ?writer:int -> t -> row_id -> Tuple.t -> Tuple.t option

(** [restore t id row] re-inserts a row under a specific id (used by
    transaction rollback and recovery). The id must be unoccupied but
    may be below the current high-water mark. *)
val restore : ?writer:int -> t -> row_id -> Tuple.t -> unit

(** Live row count. *)
val cardinal : t -> int

(** [iter f t] applies [f] to live rows in ascending row-id order. *)
val iter : (row_id -> Tuple.t -> unit) -> t -> unit

val fold : (row_id -> Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> (row_id * Tuple.t) list

(** Lazy scan in ascending row-id order; no intermediate list. The
    high-water mark is captured at creation, so rows inserted during
    iteration are not observed. Row-read metrics are charged per
    element consumed; consume each sequence at most once. *)
val to_seq : t -> (row_id * Tuple.t) Seq.t

(** [add_index t ~positions] creates (and backfills) a hash index; a
    second call for the same positions is a no-op. *)
val add_index : t -> positions:int list -> unit

(** [add_ordered_index t ~position] creates (and backfills) an ordered
    index on one column, enabling {!range_lookup}. Idempotent. *)
val add_ordered_index : t -> position:int -> unit

(** [range_lookup t ~position ~lo ~hi] returns the live rows whose
    column at [position] falls in the interval, using an ordered index
    when one exists and a scan otherwise. Rows are in ascending
    (key, id) order when indexed, id order otherwise. *)
val range_lookup :
  t ->
  position:int ->
  lo:Ordered_index.bound ->
  hi:Ordered_index.bound ->
  (row_id * Tuple.t) list

(** Lazy {!range_lookup}; same caveats as {!to_seq}. *)
val range_lookup_seq :
  t ->
  position:int ->
  lo:Ordered_index.bound ->
  hi:Ordered_index.bound ->
  (row_id * Tuple.t) Seq.t

(** True when an ordered index exists on this column. *)
val has_ordered_index : t -> position:int -> bool

(** [lookup t ~positions key] uses an index on [positions] when one
    exists, else scans. Returns matching (id, row) pairs in id order. *)
val lookup : t -> positions:int list -> Value.t list -> (row_id * Tuple.t) list

(** Lazy {!lookup}; same caveats as {!to_seq}. Probes are canonicalized
    to sorted column positions, so WHERE-clause column order does not
    affect index discovery. *)
val lookup_seq :
  t -> positions:int list -> Value.t list -> (row_id * Tuple.t) Seq.t

(** Remove all rows (indexes kept, row ids keep growing). Version
    chains are dropped too. *)
val clear : t -> unit

(** {2 Snapshot reads (chains on)}

    [visible w] decides whether writer [w]'s effects belong to the
    caller's snapshot; the row state is reconstructed by undoing every
    invisible write along the version chain (newest first). These
    paths never consult indexes — a deleted slot may still carry a
    version some snapshot sees — and charge the usual scan/row-read
    metrics per element consumed. *)

(** The row as the snapshot sees it, or [None] when no visible version
    exists. *)
val read_at : t -> row_id -> visible:(int -> bool) -> Tuple.t option

(** Snapshot scan in ascending row-id order, materialized eagerly
    (under the table mutex inside a parallel region). *)
val to_seq_at : t -> visible:(int -> bool) -> (row_id * Tuple.t) Seq.t

(** Snapshot {!lookup_seq}: filter-scan over the visible rows (probes
    canonicalized like the live path, indexes bypassed). *)
val lookup_seq_at :
  t ->
  positions:int list ->
  Value.t list ->
  visible:(int -> bool) ->
  (row_id * Tuple.t) Seq.t

(** Snapshot {!range_lookup_seq}: filter-scan over the visible rows. *)
val range_lookup_seq_at :
  t ->
  position:int ->
  lo:Ordered_index.bound ->
  hi:Ordered_index.bound ->
  visible:(int -> bool) ->
  (row_id * Tuple.t) Seq.t

(** [push_version t ~writer id before] pushes one entry onto row
    [id]'s chain, as a write by [writer] whose before-image was
    [before] would, whatever the switch says. For an engine turning
    chains on while transactions that already wrote are still active:
    it replays their writes onto the chains, oldest first. *)
val push_version : t -> writer:int -> row_id -> Tuple.t option -> unit

(** [gc_versions t ~obsolete] truncates each version chain at the
    newest entry whose writer satisfies [obsolete] (committed before
    the oldest live snapshot, or finished aborting): that entry's
    before-image and everything older are unreachable by any snapshot
    and are dropped. Returns the number of entries dropped (feeds the
    [storage.mvcc.versions_gcd] counter). *)
val gc_versions : t -> obsolete:(int -> bool) -> int

(** Total version-chain entries currently retained (0 once every
    transaction finished and {!gc_versions} ran — the entsim
    quiescence invariant). *)
val chain_entries : t -> int
