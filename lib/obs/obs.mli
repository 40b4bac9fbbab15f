(** Process-global metrics registry and span tracer.

    Metric names follow ["layer.component.metric"], e.g.
    ["txn.lock.waits"]. Counters, gauges and histograms are interned by
    name: instrumented modules call {!counter}/{!gauge}/{!histogram}
    once at initialization and bump the returned handle on the hot
    path (an [Atomic] fetch-and-add — cheap enough to stay on by
    default). Span tracing is off unless {!set_tracing} enabled it. *)

(** {1 Metrics} *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find or create the counter registered under this name.
    @raise Invalid_argument if the name holds a different metric type. *)

val incr : ?n:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit

val histogram : ?alpha:float -> string -> histogram
val observe : histogram -> float -> unit

(** Merged snapshot of the histogram's per-domain stripes — a fresh
    [Hist.t], not a live view. Counters and histograms are striped by
    executing domain so parallel workloads never share a cell; reads
    merge the stripes and are bitwise identical to an unstriped
    implementation when only one domain observed. *)
val hist : histogram -> Hist.t

val find_counter : string -> int option
val find_gauge : string -> float option
val find_histogram : string -> Hist.t option
val metric_names : unit -> string list

(** {1 Span tracing} *)

type span_record = {
  sp_name : string;
  sp_start : float;
      (** seconds on the monotonic clock ({!Clock.monotonic});
          project with {!Clock.to_wall} for an epoch instant *)
  sp_dur : float;  (** seconds *)
  sp_depth : int;  (** nesting level at entry, outermost = 0 *)
}

val set_tracing : bool -> unit
val tracing : unit -> bool

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span. With tracing off this is just
    the call; with tracing on, the completed span (exceptional exits
    included) lands in a bounded ring buffer. *)

val spans : unit -> span_record list
(** Completed spans still in the ring, oldest first. *)

(** {1 Snapshots} *)

val snapshot_json : unit -> Json.t
(** All registered metrics:
    [{"counters": {..}, "gauges": {..}, "histograms": {name: summary}}]
    plus ["spans"]/["spans_dropped"] when tracing is on. Keys are
    sorted; every value is finite. *)

val snapshot : unit -> string
(** [Json.to_string (snapshot_json ())]. *)

val write_snapshot : string -> unit
(** Write [snapshot ()] (newline-terminated) to a file. *)

val reset : unit -> unit
(** Zero every metric, clear the trace ring and the {!Event} log, then
    run the {!add_reset_hook} hooks. Registered handles stay valid
    (benchmarks reset between cells). *)

val add_reset_hook : (unit -> unit) -> unit
(** Run [f] at the end of every {!reset}. Used by modules layered on
    the registry (e.g. {!Timeseries} re-anchors its windows) without
    obs depending on them. Hooks cannot be removed. *)
