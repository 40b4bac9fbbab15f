(** Windowed time-series aggregation of the metrics registry.

    When enabled, {!sample} slices simulated time into fixed windows
    and closes each one into a ring buffer: counters contribute their
    per-window delta, histograms a delta histogram (exact counts,
    [alpha]-accurate quantiles via {!Hist.diff}), gauges their value at
    close. Disabled (the default), {!sample} is a single branch — no
    allocation, no locking.

    Sampling must run on the coordinator (the scheduler calls it
    between parallel phases), so metric reads never race worker-domain
    histogram writes. The ring itself is mutex-guarded, so readers
    ({!windows}, {!to_json}) are safe from any domain.

    A window's deltas are whatever accumulated between the sample that
    opened it and the one that closed it — resolution is the sampling
    cadence, one scheduler progress-loop iteration in practice.
    Simulated-time jumps produce empty gap windows (or re-anchor when
    the gap exceeds the whole ring); a backwards clock (entsim
    crash/recovery) re-anchors keeping counter bases, so pre-crash
    deltas roll into the first post-crash window. [Obs.reset] clears
    the ring and bases via a reset hook. *)

type window = {
  w_start : float;  (** window start, simulated seconds *)
  w_width : float;  (** nominal width, or less for a {!flush} remnant *)
  w_counters : (string * int) list;
      (** per-window deltas, name-sorted; zero deltas omitted *)
  w_gauges : (string * float) list;  (** values at window close *)
  w_hists : (string * Hist.t) list;
      (** per-window delta histograms; empty ones omitted *)
}

val enable : ?width:float -> ?capacity:int -> unit -> unit
(** Turn sampling on with the given window width (simulated seconds,
    default 1.0) and ring capacity in windows (default 120). Clears any
    previous ring. Call before building the system: modules that
    register sampling-only gauges (lock shards, domain pools) check
    {!enabled} at creation time. *)

val disable : unit -> unit
(** Turn sampling off, clear the ring and drop the window hook. *)

val enabled : unit -> bool
val width : unit -> float

val sample : float -> unit
(** [sample now] advances the window clock to [now], closing any
    windows that ended. One branch when disabled. *)

val flush : unit -> unit
(** Close the current partial window at the last sampled time (its
    [w_width] is the actual elapsed fraction). Call at end of run so
    short runs still produce at least one window. *)

val set_on_window : (window -> unit) option -> unit
(** Hook invoked (outside the internal lock, on the sampling thread)
    for every window as it closes — the online SLO monitor attaches
    here, and [youtopia top] renders frames from it. One slot; compose
    manually to fan out. *)

val windows : unit -> window list
(** Retained closed windows, oldest first. *)

val last : int -> window list
(** The [n] most recent closed windows, oldest first. *)

val counter_delta : window -> string -> int
(** Delta of a counter in this window (0 when absent). *)

val window_hist : window -> string -> Hist.t option

val to_json : ?last:int -> unit -> Json.t
(** [{window_s, windows: [...]}] — optionally only the last [n]. *)
