(** A minimal fixed-size domain pool (Domainslib-style, stdlib only).

    The pool owns [domains - 1] worker domains; the caller participates
    in every parallel region, so [create ~domains:4] uses exactly four
    domains including the submitting one. With [domains <= 1] the pool
    spawns nothing and [run_indexed] degenerates to an in-order loop on
    the caller: the scheduler's deterministic mode is such a pool. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [max 0 (domains - 1)] worker domains.
    [domains] is clamped below at 1. *)

val domains : t -> int
(** Number of domains participating in parallel regions (workers + caller). *)

val run_indexed : t -> int -> (int -> unit) -> unit
(** [run_indexed pool n f] evaluates [f i] for every [0 <= i < n], with
    work items handed out dynamically across the pool's domains. The
    caller participates. Returns when all [n] items completed; if any
    item raised, one of the exceptions is re-raised in the caller after
    the region has quiesced. Not reentrant: a pool runs one region at a
    time, and [f] must not submit to the same pool.

    With more than one domain and more than one item, the call is a
    parallel region: {!Ent_obs.Region.running} holds throughout it.
    Otherwise the items run inline on the caller, outside any region. *)

val shutdown : t -> unit
(** Joins all worker domains. The pool must not be used afterwards.
    Idempotent. *)
