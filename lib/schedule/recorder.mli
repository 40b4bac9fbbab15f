(** Recording real executions as formal schedules.

    Subscribe {!on_engine_event} and {!on_entangle} to a manager with
    [Ent_core.Manager.observe] (or to the engine's and scheduler's
    hooks directly); {!history}
    then returns the execution as a {!History.t} (quasi-reads not yet
    expanded — use {!History.expand_quasi_reads}). *)

type t

(** [create ?cap ?sink ()]. With [~cap:n] the recorder retains at most
    the [2n] newest operations (cut back to [n] amortized), so memory
    stays bounded on long runs — {!history} is then a suffix and
    {!dropped} counts what was discarded. [~sink] streams every
    operation as it is recorded (before any truncation), e.g. into
    {!Certify.on_op}; combine both for bounded-memory certified runs.

    @raise Invalid_argument if [cap < 1]. *)
val create : ?cap:int -> ?sink:(History.op -> unit) -> unit -> t

val on_engine_event : t -> Ent_txn.Engine.event -> unit

(** [on_entangle t ~event participants] where each participant is
    [(txn, grounding_tables)] — matching the scheduler hook's payload. *)
val on_entangle : t -> event:int -> (int * string list) list -> unit

(** Operations discarded so far under [cap] (0 without a cap). *)
val dropped : t -> int

(** Operations recorded so far, oldest first. Transactions still
    running have no terminal operation yet; filter or complete before
    validity checking. With a [cap] this is only the retained suffix —
    check {!dropped} before treating it as complete. *)
val history : t -> History.t

(** The recorded history restricted to transactions that terminated,
    i.e. a complete schedule suitable for the checkers. *)
val completed_history : t -> History.t
