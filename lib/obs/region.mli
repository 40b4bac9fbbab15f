(** Parallel regions: whether worker domains are running right now,
    and a buffer for work deferred out of a region.

    A parallel region is one multi-domain {!Ent_par.Pool.run_indexed}
    call, the only caller of {!within}. While one runs, tables lock and
    materialize their reads, and the event log and engine observer
    dispatch push into {!buffer}s that the coordinator drains once the
    region ends. Outside a region only the coordinator runs, and every
    layer keeps its single-domain code path. *)

val running : unit -> bool
(** True while any parallel region runs in the process. *)

val within : (unit -> 'a) -> 'a
(** [within f] runs [f] as a parallel region: {!running} holds until
    [f] returns or raises. *)

type 'a buffer
(** Stamped per-domain buffer: pushed from any domain, drained in push
    order. *)

val buffer : unit -> 'a buffer

val push : 'a buffer -> 'a -> unit
(** Append from the executing domain: a global fetch-and-add order
    stamp plus the executing domain's shard mutex, so domains on
    different shards never contend. *)

val drain : 'a buffer -> 'a list
(** Remove and return everything pushed so far, sorted by order stamp:
    an exact linearization of push order. *)
