(** The catalog: the named tables of a database instance. *)

type t

val create : unit -> t

(** Turn version chains on for every table of the catalog, present and
    future: from now on each row mutation pushes a writer-tagged
    before-image (see {!Table}). One-way; chains start off. The engine
    calls it at its first snapshot-isolation transaction. *)
val enable_chains : t -> unit

val chains_enabled : t -> bool

(** [create_table t name schema] makes and registers a fresh table.
    @raise Invalid_argument when [name] already exists. *)
val create_table : t -> string -> Schema.t -> Table.t

(** Table names are case-sensitive, as in the paper's examples. *)
val find : t -> string -> Table.t option

(** @raise Not_found when absent. *)
val find_exn : t -> string -> Table.t

val mem : t -> string -> bool
val drop : t -> string -> unit
val table_names : t -> string list
val iter : (string -> Table.t -> unit) -> t -> unit
