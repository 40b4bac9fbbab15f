(** Entanglement groups: a union-find over task ids, built up as
    entanglement operations happen during a run. The group of a task is
    the set of tasks it has entangled with, directly or transitively —
    the unit of group commit and group abort (§3.3.3).

    Groups never outlive a run: answers only happen inside a run, and
    at run end every group either commits or aborts entirely, so the
    scheduler resets the structure between runs. *)

type t

val create : unit -> t

(** [join t ids] merges all listed tasks into one group. *)
val join : t -> int list -> unit

(** All known members of [id]'s group, including [id] itself (a task
    that never entangled is its own singleton group). *)
val members : t -> int -> int list

val same_group : t -> int -> int -> bool

(** True when the task has entangled with at least one other task. *)
val entangled : t -> int -> bool

(** Drop all groups (between runs). *)
val reset : t -> unit

(** [group_by t id_of items] buckets [items] by the group of their id
    in one pass. Groups are listed by first appearance and keep the
    input order inside. *)
val group_by : t -> ('a -> int) -> 'a list -> 'a list list

(** [components id_of answered] splits the queries answered in one
    coordination round, each with its chosen grounding, into
    entanglement components: q is linked to q' when one of q's chosen
    postconditions is provided by q''s chosen head. Each component is
    one entanglement operation (one connected combined query in the
    algorithm of [6]); components are listed by first appearance and
    keep the input order inside. *)
val components :
  ('a -> int) ->
  ('a * Ent_entangle.Ground.grounding) list ->
  ('a * Ent_entangle.Ground.grounding) list list

(** [entangle t engine ~event ~txn_of ids] records one entanglement
    operation among the tasks [ids]: it joins them into one group,
    makes every member of the (possibly merged) group one lock owner,
    tagged with the group's smallest task id, and logs the operation
    for entanglement-aware recovery. Members must share lock ownership
    because they commit or abort together: a member writing a table its
    partner grounding-read must not self-block the group. [txn_of id]
    is the live engine transaction of task [id], or [None] once it
    finished. *)
val entangle :
  t ->
  Ent_txn.Engine.t ->
  event:int ->
  txn_of:(int -> int option) ->
  int list ->
  unit
