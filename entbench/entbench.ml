(* The repository benchmark: one workload per process.

     entbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 times whole episodes with tracing off and prints the
   end-to-end metrics; --trace 1 prints the per-layer ledger (README.md
   in this directory). The last line of standard output is one JSON
   object {correct, attempted, failed, metrics}; the exit code is
   nonzero when any correctness check failed. *)

open Ent_core
open Ent_obs

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile of an unsorted sample. *)
let quantile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

type outcome = {
  attempted : int;
  committed : int;
  failures : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* [warmup] episodes, then measured ones until [seconds] have passed
   since [start] and at least [min_count] ran: (warm-up, measured). *)
let episodes ~start ~seconds ~min_count ?(warmup = 0) run =
  let warm = List.init warmup (fun _ -> run ()) in
  let rec go acc n =
    if n >= min_count && Span.now () -. start >= seconds then List.rev acc
    else go (run () :: acc) (n + 1)
  in
  (warm, go [] 0)

(* --- end-to-end run (tracing off) --- *)

(* What an episode leaves behind once its world is dropped: keeping
   worlds alive would grow the heap, and with it GC cost, episode after
   episode. *)
type timed = {
  expected : int;
  committed : int;
  failures : string list;
  wall_s : float;  (** first submit to drain return *)
  cpu_s : float;  (** the same span, in CPU seconds *)
  setup_cpu_s : float;
  parse_us : float;  (** generation and parsing, per program *)
  latencies_ms : (float * float) list;  (** expected transactions: wall, CPU *)
  run_ms : float list;  (** run-starting submits and run_once calls *)
  submit_s : float;  (** in submits that started no run *)
  submits : int;
  alloc_words : float;  (** allocated while driving *)
  major_gcs : int;  (** major collections while driving *)
  scale : float;  (** {!Calib.scale} around the episode *)
}

let summarize w (e : Workload.episode) ~alloc_words ~major_gcs =
  let i = e.inputs in
  {
    expected = Array.length e.ids;
    committed = Workload.committed e;
    failures = Workload.check w e;
    wall_s = e.wall_s;
    cpu_s = e.cpu_s;
    setup_cpu_s = i.setup_cpu_s;
    parse_us =
      1e6 *. i.parse_s
      /. float_of_int (List.length i.programs + List.length i.background);
    latencies_ms =
      Array.fold_left
        (fun acc id ->
          match Hashtbl.find_opt e.latency id with
          | Some (wall, cpu) -> (1000.0 *. wall, 1000.0 *. cpu) :: acc
          | None -> acc)
        [] e.ids;
    run_ms = List.map (fun s -> 1000.0 *. s) e.run_calls;
    submit_s = e.submit_s;
    submits = e.submits;
    alloc_words;
    major_gcs;
    scale = 1.0;
  }

(* Run [episode] between two calibration kernels, each after a full
   compaction (so neither pays for the episode's garbage), and return
   its result with the scale they measured. *)
let calibrated episode =
  Gc.compact ();
  let before = Calib.kernel () in
  let result = episode () in
  Gc.compact ();
  (result, Calib.scale before (Calib.kernel ()))

(* Reference-speed seconds of an episode's drive and set-up. *)
let drive_s r = r.cpu_s *. r.scale
let setup_s r = r.setup_cpu_s *. r.scale

(* Latency quantile [q] of an episode in ms: on the wall clock, or at
   reference speed (CPU time, scaled). *)
let wall_latency q r = quantile q (List.map fst r.latencies_ms)
let latency q r = r.scale *. quantile q (List.map snd r.latencies_ms)

let timed_episode w ~seed () =
  Span.episode := !Span.episode + 1;
  let r, scale =
    calibrated (fun () ->
        let inputs = Workload.setup w ~seed in
        let g0 = Gc.quick_stat () in
        let episode = Workload.drive inputs in
        let g1 = Gc.quick_stat () in
        let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
        summarize w episode ~alloc_words:(words g1 -. words g0)
          ~major_gcs:(g1.major_collections - g0.major_collections))
  in
  { r with scale }

let attempted runs = List.fold_left (fun n r -> n + r.expected) 0 runs

let committed runs = List.fold_left (fun n r -> n + r.committed) 0 runs

let end_to_end w ~seed ~seconds =
  let start = Span.now () in
  let warm, runs =
    episodes ~start ~seconds ~min_count:3 ~warmup:1 (timed_episode w ~seed)
  in
  (* Every time is at reference speed (Calib). Latency quantiles are
     taken per episode (2000+ samples each, so at least 20 beyond the
     p99) and their median reported: one episode disturbed from outside
     then moves neither. *)
  let per_episode f = median (List.map f runs) in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  Printf.printf "%s: %d episodes measured after 1 warm-up, %d latency samples each\n"
    w.Workload.name (List.length runs)
    (List.hd runs).expected;
  let tps r = float_of_int r.committed /. drive_s r in
  Printf.printf "per episode, commit_tps at reference speed:%s\n"
    (String.concat "" (List.map (fun r -> Printf.sprintf " %.0f" (tps r)) runs));
  Printf.printf
    "wall-clock medians: commit_tps %.1f txn/s, latency p50 %.3f ms, p99 %.3f ms; \
     CPU/wall %.3f, reference-speed factor %.3f\n"
    (per_episode (fun r -> float_of_int r.committed /. r.wall_s))
    (per_episode (wall_latency 0.50))
    (per_episode (wall_latency 0.99))
    (per_episode (fun r -> r.cpu_s /. r.wall_s))
    (per_episode (fun r -> r.scale));
  {
    attempted = attempted (warm @ runs);
    committed = committed (warm @ runs);
    failures = List.concat_map (fun r -> r.failures) (warm @ runs);
    metrics =
      [ ("commit_tps", per_episode tps, "txn/s");
        ("txn_latency_p50_ms", per_episode (latency 0.50), "ms");
        ("txn_latency_p99_ms", per_episode (latency 0.99), "ms");
        ("setup_s", per_episode setup_s, "s");
        ("peak_heap_mb", heap_mb, "MB") ];
  }

(* --- per-layer ledger (traced run) --- *)

let counter name = float_of_int (Option.value ~default:0 (Obs.find_counter name))

let hist_sum name =
  match Obs.find_histogram name with
  | Some h -> Hist.sum h
  | None -> 0.0

(* Wall time of all runs, and of their step phases: Run_start to the
   first grounding read ([ground_at], by run), coordination round or
   Run_end, whichever comes first. *)
let run_phases events ~ground_at =
  let starts = Hashtbl.create 64 and coord_at = Hashtbl.create 64 in
  let wall = ref 0.0 and step = ref 0.0 in
  List.iter
    (fun (ev : Event.t) ->
      match ev.kind with
      | Event.Run_start _ -> Hashtbl.replace starts ev.run ev.t_mono
      | Event.Coord_round _ ->
        if not (Hashtbl.mem coord_at ev.run) then
          Hashtbl.replace coord_at ev.run ev.t_mono
      | Event.Run_end _ -> (
        match Hashtbl.find_opt starts ev.run with
        | Some t0 ->
          let stop =
            List.fold_left Float.min ev.t_mono
              (List.filter_map
                 (fun tbl -> Hashtbl.find_opt tbl ev.run)
                 [ coord_at; ground_at ])
          in
          wall := !wall +. (ev.t_mono -. t0);
          step := !step +. (stop -. t0)
        | None -> ())
      | _ -> ())
    events;
  (!wall, !step)

(* Mean ms per committed expected transaction in each attribution
   phase (monotonic clock), and the failed checks: every such
   transaction has a complete timeline, its phases sum to its
   event-measured latency within 5%, and that latency lies within the
   driver's own measurement of it (submit call to outcome seen). *)
let attribution (e : Workload.episode) ~committed events =
  let expected = Hashtbl.create 4096 in
  Array.iter (fun id -> Hashtbl.replace expected id ()) e.ids;
  let sums = Hashtbl.create 8 in
  let sum p = Option.value ~default:0.0 (Hashtbl.find_opt sums p) in
  let n = ref 0 and off = ref 0 in
  List.iter
    (fun (r : Attrib.txn_report) ->
      if Hashtbl.mem expected r.task && r.outcome = Some "committed" then begin
        incr n;
        let phases = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 r.by_phase in
        let driver =
          Option.fold ~none:0.0 ~some:fst (Hashtbl.find_opt e.latency r.task)
        in
        if
          Float.abs (phases -. r.total_s) > (0.05 *. r.total_s) +. 1e-6
          || r.total_s > (1.05 *. driver) +. 1e-4
        then incr off;
        List.iter
          (fun (p, v) ->
            Hashtbl.replace sums p (v +. sum p))
          r.by_phase
      end)
    (Attrib.of_events ~time:(fun ev -> ev.t_mono) events);
  let phase_ms p =
    1000.0 *. sum p /. float_of_int (max 1 !n)
  in
  let failures =
    (if !n <> committed then
       [ Printf.sprintf "attribution covers %d of %d committed transactions" !n
           committed ]
     else [])
    @
    if !off > 0 then
      [ Printf.sprintf
          "%d transactions' attributed phases disagree with their latency" !off ]
    else []
  in
  (phase_ms, failures)

type traced = {
  run : timed;  (** its failures include the tracing-only checks *)
  ledger : (string * float * string) list;
  lock_ops : Probe.lock_op list;
  gcache : int * int * int;  (** hits, misses, invalidations *)
  kept : Workload.inputs option;  (** certified episode only, for the probes *)
}

(* One episode with Obs tracing and event logging on. [certify] also
   attaches the online schedule certifier and captures the lock-request
   stream for the replay probe. *)
let traced_body w ~seed ~certify () =
  Span.episode := !Span.episode + 1;
  let inputs = Workload.setup w ~seed in
  let m = inputs.world.manager in
  let engine = Manager.engine m in
  Obs.reset ();
  let ground_at = Hashtbl.create 64 in
  Ent_txn.Engine.add_on_event engine (function
    | Ent_txn.Engine.Ev_grounding_read _ ->
      let run = Event.current_run () in
      if not (Hashtbl.mem ground_at run) then
        Hashtbl.replace ground_at run (Clock.monotonic ())
    | _ -> ());
  let certifier =
    if certify then begin
      let c = Ent_schedule.Certify.create () in
      Manager.observe m
        ~on_event:(Ent_schedule.Certify.on_engine_event c)
        ~on_entangle:(Ent_schedule.Certify.on_entangle c);
      Probe.start_lock_capture engine;
      Some c
    end
    else None
  in
  Obs.set_tracing true;
  Event.set_logging true;
  let e =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_tracing false;
        Event.set_logging false)
      (fun () -> Workload.drive inputs)
  in
  let lock_ops = if certify then Probe.stop_lock_capture () else [] in
  let events = Event.events () in
  let committed = Workload.committed e in
  let per_txn x = x /. float_of_int (max 1 committed) in
  let st = Manager.stats m in
  let ((hits, misses, invalidations) as gcache) =
    Scheduler.gcache_stats (Manager.scheduler m)
  in
  let run_wall, step = run_phases events ~ground_at in
  let coord = st.coord_wall_s in
  let match_s = hist_sum "entangle.coordinate.match_latency_us" /. 1e6 in
  let phase_ms, attribution_failures = attribution e ~committed events in
  let failures =
    attribution_failures
    @ (if Event.dropped () > 0 then
         [ Printf.sprintf "event log dropped %d events" (Event.dropped ()) ]
       else [])
    @ (if Ent_txn.Engine.chain_entries engine > 0 then
         [ "version chains not drained at quiescence" ]
       else [])
    @
    match certifier with
    | Some c when not (Ent_schedule.Certify.ok c) ->
      [ Format.asprintf "certifier: %a" Ent_schedule.Certify.pp_report c ]
    | _ -> []
  in
  let commits = float_of_int committed and repooled = float_of_int st.repooled in
  let ledger =
    [ ("entangle.coord_s", coord, "s");
      ("entangle.coord_share", coord /. e.wall_s, "ratio");
      ("entangle.match_s", match_s, "s");
      ("entangle.ground_s", coord -. match_s, "s");
      ( "entangle.gcache.hit_ratio",
        (if hits + misses = 0 then 0.0
         else float_of_int hits /. float_of_int (hits + misses)),
        "ratio" );
      ("entangle.gcache.invalidations", float_of_int invalidations, "count");
      ( "entangle.coordinate.nodes_per_round",
        counter "entangle.coordinate.nodes_expanded"
        /. float_of_int (max 1 st.coordination_rounds),
        "count" );
      ( "entangle.ground.valuations_per_query",
        counter "entangle.ground.valuations"
        /. Float.max 1.0 (counter "entangle.ground.computes"),
        "count" );
      ("entangle.wait.entangle_blocked_ms", phase_ms Attrib.Entangle_blocked, "ms");
      ("core.step_s", step, "s");
      (* A run with no grounding read or coordination round keeps its
         (empty) coordination phase inside the step, hence the floor. *)
      ("core.rest_s", Float.max 0.0 (run_wall -. step -. coord), "s");
      ("core.runs_per_ktxn", 1000.0 *. per_txn (float_of_int st.runs), "count");
      ("core.repooled_per_txn", per_txn repooled, "count");
      ( "core.useful_exec_ratio",
        commits /. Float.max 1.0 (commits +. repooled),
        "ratio" );
      ( "core.sim_s_per_ktxn",
        1000.0 *. per_txn (Manager.now m),
        "sim_s" );
      ("core.wait.in_pool_ms", phase_ms Attrib.In_pool, "ms");
      ("core.wait.executing_ms", phase_ms Attrib.Executing, "ms");
      ("core.wait.committing_ms", phase_ms Attrib.Committing, "ms");
      ("txn.lock.requests_per_txn", per_txn (counter "txn.lock.requests"), "count");
      ("txn.lock.waits_per_txn", per_txn (counter "txn.lock.waits"), "count");
      ("txn.wait.lock_blocked_ms", phase_ms Attrib.Lock_blocked, "ms");
      ("txn.deadlocks", float_of_int st.deadlocks, "count");
      ("txn.si_aborts", float_of_int st.si_aborts, "count");
      ("txn.wal.appends_per_txn", per_txn (counter "txn.wal.appends"), "count");
      ( "storage.rows_read_per_txn",
        per_txn (counter "storage.table.rows_read"),
        "count" );
      ( "storage.index_lookups_per_txn",
        per_txn (counter "storage.index.lookups"),
        "count" );
      ("storage.scans_per_txn", per_txn (counter "storage.table.scans"), "count");
      ("storage.mvcc.chain_entries", counter "storage.mvcc.versions_gcd", "count");
      ("obs.events_per_txn", per_txn (float_of_int (List.length events)), "count") ]
  in
  let run = summarize w e ~alloc_words:0.0 ~major_gcs:0 in
  {
    run = { run with failures = run.failures @ failures };
    ledger;
    lock_ops;
    gcache;
    kept = (if certify then Some inputs else None);
  }

let traced_episode w ~seed ~certify () =
  let t, scale = calibrated (traced_body w ~seed ~certify) in
  { t with run = { t.run with scale } }

(* Element-wise mean of ledgers with the same names in the same order. *)
let mean_ledger = function
  | [] -> []
  | first :: rest ->
    let n = float_of_int (1 + List.length rest) in
    let add = List.map2 (fun (name, sum, unit) (_, v, _) -> (name, sum +. v, unit)) in
    List.map
      (fun (name, sum, unit) -> (name, sum /. n, unit))
      (List.fold_left add first rest)

let per_layer w ~seed ~seconds =
  let start = Span.now () in
  Span.enabled := true;
  (* Room for every event of one traced episode: a wrapped ring would
     cut timelines short, and the ledger fails the run if it drops any. *)
  Event.set_capacity (1 lsl 20);
  (* Untraced episodes: the baseline for obs.overhead_frac, and the
     driver-timed figures that need no in-program tracing. *)
  let warm, plain =
    episodes ~start ~seconds:(0.3 *. seconds) ~min_count:2 ~warmup:1
      (timed_episode w ~seed)
  in
  let _, traced =
    episodes ~start ~seconds:(0.7 *. seconds) ~min_count:1
      (traced_episode w ~seed ~certify:false)
  in
  let cert = traced_episode w ~seed ~certify:true () in
  let inputs = Option.get cert.kept in
  let m = inputs.world.manager in
  let catalog = Manager.catalog m in
  let g =
    Probe.grounding catalog
      (Probe.grounding_calls catalog (inputs.background @ inputs.programs))
  in
  let hits, misses, _ = cert.gcache in
  let saved_per_spent =
    if hits + misses = 0 || g.lookup_us = 0.0 then 0.0
    else
      float_of_int hits *. g.enumerate_us
      /. (float_of_int (hits + misses) *. g.lookup_us)
  in
  let records =
    match Ent_txn.Engine.log (Manager.engine m) with
    | Some wal -> Ent_txn.Wal.records wal
    | None -> []
  in
  let wal_us = Probe.wal_append_us ~logging:false records in
  let wal_logged_us = Probe.wal_append_us ~logging:true records in
  let run_ms = List.concat_map (fun r -> r.run_ms) plain in
  let untraced_s = median (List.map drive_s plain) in
  let traced_s = median (List.map (fun t -> drive_s t.run) traced) in
  let per_plain f = median (List.map f plain) in
  let metrics =
    mean_ledger (List.map (fun t -> t.ledger) traced)
    @ [ ("entangle.gcache.lookup_us", g.lookup_us, "us");
        ("entangle.ground.enumerate_us", g.enumerate_us, "us");
        ("entangle.gcache.saved_per_spent", saved_per_spent, "ratio");
        ("entangle.gcache.lookup_growth", g.lookup_growth, "ratio");
        ("core.run_ms_p50", quantile 0.50 run_ms, "ms");
        ("core.run_ms_p99", quantile 0.99 run_ms, "ms");
        ( "core.submit_us",
          1e6
          *. List.fold_left (fun acc r -> acc +. r.submit_s) 0.0 plain
          /. float_of_int (max 1 (List.fold_left (fun n r -> n + r.submits) 0 plain)),
          "us" );
        ( "runtime.alloc_words_per_txn",
          per_plain (fun r -> r.alloc_words /. float_of_int (max 1 r.committed)),
          "words" );
        ("runtime.major_gcs", per_plain (fun r -> float_of_int r.major_gcs), "count");
        ("txn.lock.request_us", Probe.lock_request_us cert.lock_ops, "us");
        ("txn.wal.append_us", wal_us, "us");
        ("sql.parse_us", per_plain (fun r -> r.parse_us), "us");
        ("obs.overhead_frac", (traced_s /. untraced_s) -. 1.0, "ratio");
        ( "obs.wal_append_logged_ratio",
          (if wal_us = 0.0 then 0.0 else wal_logged_us /. wal_us),
          "ratio" ) ]
  in
  Printf.printf
    "%s: %d untraced episodes after 1 warm-up, %d traced, 1 certified; \
     %d run calls; grounding probe: %d calls, %d cache entries; %d lock ops, \
     %d WAL records replayed\n"
    w.Workload.name (List.length plain) (List.length traced) (List.length run_ms)
    g.calls g.entries (List.length cert.lock_ops) (List.length records);
  (try Sys.mkdir "entbench-out" 0o755 with Sys_error _ -> ());
  let spans = Filename.concat "entbench-out" (w.name ^ "-spans.json") in
  Span.write spans;
  Printf.printf "benchmark-side spans written to %s\n" spans;
  let runs = warm @ plain @ List.map (fun t -> t.run) (cert :: traced) in
  {
    attempted = attempted runs;
    committed = committed runs;
    failures = List.concat_map (fun r -> r.failures) runs;
    metrics;
  }

(* --- output --- *)

let print_result o =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-40s %14.6g %s\n" name v unit)
    o.metrics;
  List.iter (Printf.printf "CHECK FAILED: %s\n") o.failures;
  let correct = o.failures = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int (o.attempted - o.committed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     ( name,
                       Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ] ))
                   o.metrics) ) ]));
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "entbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ( "--workload",
        Arg.Set_string workload,
        "NAME entangled-pairs | social-mixed | cycles-pending" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end metrics (0) or per-layer ledger (1)" ) ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  let w =
    match List.find_opt (fun w -> w.Workload.name = !workload) Workload.all with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload '" ^ !workload ^ "'\n" ^ usage);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  Event.set_logging false;
  Obs.set_tracing false;
  let seconds = float_of_int !seconds in
  let correct =
    print_result
      (if !trace = 1 then per_layer w ~seed:!seed ~seconds
       else end_to_end w ~seed:!seed ~seconds)
  in
  exit (if correct then 0 else 1)
