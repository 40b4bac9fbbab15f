(** Dynamic history checking: replay a recorded (or hand-written)
    schedule against the Appendix C requirements and report every
    anomaly with a concrete witness.

    Checks, in order: schedule validity (C.1), conflict cycles over
    committed transactions with quasi-reads expanded (C.2), reads from
    aborted transactions (C.3), widowed transactions (C.4), and
    unrepeatable quasi-reads (the Figure 3b anomaly); optionally
    oracle-serializability (Definition C.7). *)

type violation = {
  code : string;  (** e.g. ["conflict-cycle"], ["widowed"] *)
  requirement : string;  (** the Appendix C requirement violated *)
  witness : string;  (** the concrete operations/transactions involved *)
}

type report = {
  ops : int;
  txns : int list;
  committed : int list;
  aborted : int list;
  validity : string list;  (** C.1 validity errors *)
  violations : violation list;
  level : [ `Full | `No_widow | `Loose ];
  serializable : bool option;  (** [None] = not checked *)
}

(** [`Auto] (default) runs the serializability oracle only when it is
    exact (at most 7 committed transactions — beyond that it falls back
    to a single topological order and can under-approximate). *)
val check : ?serializability:[ `Auto | `On | `Off ] -> Ent_schedule.History.t -> report

(** Valid, anomaly-free, and not proven non-serializable. *)
val ok : report -> bool

val pp : Format.formatter -> report -> unit
