(* The three benchmark workloads, one episode of each, and the
   correctness gate.

   An episode is a fresh travel world plus a fixed-size program stream,
   driven closed-loop through the public Manager API: one driver submits
   arrivals in blocks of the run frequency f, and the block's last
   submit runs the scheduler synchronously. Every episode of a run has
   the same inputs (they depend only on the seed), so per-episode
   figures differ by measurement noise alone. *)

open Ent_core
open Ent_workload

type t = {
  name : string;
  frequency : int;  (** run frequency f: arrivals per run *)
  wal : bool;
  group_size : int;
      (** expected programs come in consecutive entanglement groups of
          this size, whose members must agree on a destination (0: no
          groups) *)
  generate : Travel.t -> offset:int -> Program.t list * Program.t list;
      (** (background programs that must stay undecided, programs
          expected to commit) *)
}

let users = 500

(* Appendix D Entangled-T (the Figure 6a / scale-up configuration):
   friend pairs coordinate a destination, then book a flight there. *)
let entangled_pairs =
  {
    name = "entangled-pairs";
    frequency = 100;
    wal = false;
    group_size = 2;
    generate =
      (fun world ~offset ->
        ( [],
          Gen.batch world ~transactional:true Gen.Entangled ~n:2000
            ~tag_base:offset ));
  }

(* Appendix D Social-T with every other transaction at snapshot
   isolation: no entangled query, so grounding is bypassed, while SQL
   evaluation, index reads, version chains, locks and the WAL carry the
   load. *)
let social_mixed =
  {
    name = "social-mixed";
    frequency = 100;
    wal = true;
    group_size = 0;
    generate =
      (fun world ~offset ->
        ( [],
          List.init 4000 (fun i ->
              let p =
                Gen.program world ~transactional:true Gen.Social
                  ~uid:((offset + (i * 13)) mod users)
                  ~partner:(-1) ~tag:(offset + i)
              in
              if i land 1 = 1 then
                Program.make ~label:p.label ~transactional:p.transactional
                  ~isolation:Ent_txn.Engine.Snapshot p.ast
              else p) ));
  }

(* Figure 6(b)+(c): rings of eight (one coordination component each)
   beside 50 lonely entangled transactions whose partners never arrive,
   so every run re-executes and repools them. f = 10 splits rings across
   blocks. Ring tags stay below the lonely tags (offset < 5000). *)
let cycles_pending =
  {
    name = "cycles-pending";
    frequency = 10;
    wal = false;
    group_size = 8;
    generate =
      (fun world ~offset ->
        ( Gen.lonely world ~n:50 ~tag_base:(1_000_000 + offset),
          List.concat
            (List.init 250 (fun k ->
                 Gen.cycle world ~set_size:8
                   ~tag_base:((offset + k) * 100))) ));
  }

let all = [ entangled_pairs; social_mixed; cycles_pending ]

(* --- set-up --- *)

type inputs = {
  world : Travel.t;
  background : Program.t list;
  programs : Program.t list;
  setup_cpu_s : float;  (** Travel.build + generation and parsing *)
  parse_s : float;  (** generation and parsing alone *)
}

let offset_of_seed seed = Hashtbl.hash (seed, "offset") mod 5000

let setup w ~seed =
  let config =
    {
      Scheduler.default_config with
      connections = 100;
      trigger = Scheduler.Every_arrivals w.frequency;
    }
  in
  let c0 = Span.cpu () in
  let world =
    Span.time "Travel.build" (fun () ->
        Travel.build ~seed ~users ~wal:w.wal ~config ())
  in
  let t1 = Span.now () in
  let background, programs =
    Span.time "Program.of_string" (fun () ->
        w.generate world ~offset:(offset_of_seed seed))
  in
  let t2 = Span.now () in
  {
    world;
    background;
    programs;
    setup_cpu_s = Span.cpu () -. c0;
    parse_s = t2 -. t1;
  }

(* --- closed-loop driving --- *)

type episode = {
  inputs : inputs;
  ids : int array;  (** task ids of the expected programs, in order *)
  background_ids : int list;
  wall_s : float;  (** first submit to drain return *)
  cpu_s : float;  (** the same span, in CPU seconds *)
  latency : (int, float * float) Hashtbl.t;
      (** task id -> wall and CPU seconds from its submit call to the
          first moment the driver saw its outcome decided *)
  run_calls : float list;  (** run-starting submits and run_once calls *)
  submit_s : float;  (** total time in submits that started no run *)
  submits : int;
}

let drive (inputs : inputs) =
  let m = inputs.world.manager in
  let sched = Manager.scheduler m in
  let stats = Manager.stats m in
  let pending = Hashtbl.create 512 in
  let latency = Hashtbl.create 4096 in
  let run_calls = ref [] and submit_s = ref 0.0 and submits = ref 0 in
  let observe now =
    let cpu = Span.cpu () in
    Hashtbl.filter_map_inplace
      (fun id (t0, c0) ->
        match Manager.outcome m id with
        | None -> Some (t0, c0)
        | Some _ ->
          Hashtbl.replace latency id (now -. t0, cpu -. c0);
          None)
      pending
  in
  let submit ~expected program =
    let runs = stats.runs in
    let c0 = if expected then Span.cpu () else 0.0 in
    let t0 = Span.now () in
    let id = Manager.submit m program in
    let t1 = Span.now () in
    if expected then Hashtbl.replace pending id (t0, c0);
    if stats.runs <> runs then begin
      Span.record ~task:id "Manager.submit+run" t0 t1;
      run_calls := (t1 -. t0) :: !run_calls;
      observe t1
    end
    else begin
      Span.record ~task:id "Manager.submit" t0 t1;
      submit_s := !submit_s +. (t1 -. t0);
      incr submits
    end;
    id
  in
  let c_first = Span.cpu () in
  let t_first = Span.now () in
  let background_ids = List.map (submit ~expected:false) inputs.background in
  let ids = Array.of_list (List.map (submit ~expected:true) inputs.programs) in
  (* Run the tail to quiescence one run at a time, so the last blocks'
     latencies end at the run that decided them, not at drain's end. *)
  let rec settle () =
    let dormant = List.length (Scheduler.dormant sched) in
    if dormant > 0 then begin
      let commits = stats.commits in
      let t0 = Span.now () in
      Manager.run_once m;
      let t1 = Span.now () in
      Span.record "Manager.run_once" t0 t1;
      run_calls := (t1 -. t0) :: !run_calls;
      observe t1;
      if
        stats.commits > commits
        || List.length (Scheduler.dormant sched) < dormant
      then settle ()
    end
  in
  settle ();
  Span.time "Manager.drain" (fun () -> Manager.drain m);
  let t_end = Span.now () in
  let c_end = Span.cpu () in
  observe t_end;
  {
    inputs;
    ids;
    background_ids;
    wall_s = t_end -. t_first;
    cpu_s = c_end -. c_first;
    latency;
    run_calls = !run_calls;
    submit_s = !submit_s;
    submits = !submits;
  }

let committed e =
  let m = e.inputs.world.manager in
  Array.fold_left
    (fun n id ->
      if Manager.outcome m id = Some Scheduler.Committed then n + 1 else n)
    0 e.ids

(* --- correctness gate --- *)

let destination m id =
  match Manager.answers_of m id with
  | (_, values) :: _ when values <> [] ->
    Some (List.nth values (List.length values - 1))
  | _ -> None

(* Every failed check, as one line each; empty when the episode is
   correct. *)
let check w e =
  let m = e.inputs.world.manager in
  let expected = Array.length e.ids in
  let ok = committed e in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if ok <> expected then
    fail "%d of %d expected transactions did not commit" (expected - ok) expected;
  let reservations = Travel.reservations e.inputs.world in
  if reservations <> ok then
    fail "Reserve holds %d rows for %d commits" reservations ok;
  if w.group_size > 0 then begin
    let split = ref 0 in
    for g = 0 to (expected / w.group_size) - 1 do
      let dests =
        List.init w.group_size (fun i -> destination m e.ids.((g * w.group_size) + i))
      in
      match dests with
      | Some d :: rest when List.for_all (( = ) (Some d)) rest -> ()
      | _ -> incr split
    done;
    if !split > 0 then
      fail "%d entanglement groups did not agree on one destination" !split
  end;
  let decided =
    List.filter (fun id -> Manager.outcome m id <> None) e.background_ids
  in
  if decided <> [] then
    fail "%d lonely transactions were decided" (List.length decided);
  List.rev !failures
