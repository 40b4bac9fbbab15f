(* Replay probes: re-issue one layer's calls from a traced episode
   against a fresh instance of that layer, from outside the library,
   and time them. They price a mechanism in isolation, where the
   episode's own timings mix it with everything around it. *)

open Ent_sql
open Ent_entangle
open Ent_txn

(* Seconds per call of [f] over [calls] calls per round, repeating
   rounds for at least 20 ms so short passes still read above the
   clock's resolution. *)
let per_call ~calls f =
  if calls = 0 then 0.0
  else begin
    let t0 = Span.now () in
    let rounds = ref 0 in
    while
      f ();
      incr rounds;
      Span.now () -. t0 < 0.02
    do
      ()
    done;
    (Span.now () -. t0) /. float_of_int (!rounds * calls)
  end

let timed_pass name ~calls f = Span.time name (fun () -> per_call ~calls f)

(* --- grounding --- *)

(* The grounding calls of [programs]: each program's leading classical
   SELECTs bind its host variables, then its first entangled statement
   is translated under that environment — what the scheduler grounds
   when the program reaches it. Programs without one are skipped. *)
let grounding_calls catalog (programs : Ent_core.Program.t list) =
  let access = Eval.direct_access catalog in
  List.filter_map
    (fun (p : Ent_core.Program.t) ->
      let env = Eval.fresh_env () in
      let rec go = function
        | (Ast.Entangled e, _) :: _ -> Some (env, Translate.of_ast ~env e)
        | ((Ast.Select _ as s), _) :: rest ->
          ignore (Eval.exec_stmt access env s);
          go rest
        | _ -> None
      in
      go p.ast.body)
    programs

type grounding = {
  calls : int;
  entries : int;  (** distinct cache entries the calls fill *)
  lookup_us : float;  (** one cache hit *)
  enumerate_us : float;  (** one uncached enumeration *)
  lookup_growth : float;
      (** hit cost with every call cached / with the first sixteenth *)
}

let grounding catalog calls =
  let n = List.length calls in
  if n = 0 then
    { calls = 0; entries = 0; lookup_us = 0.0; enumerate_us = 0.0; lookup_growth = 0.0 }
  else begin
    let access = Eval.direct_access catalog in
    let touch _ = () in
    let fill calls =
      let cache = Gcache.create catalog in
      List.iter
        (fun (env, ir) -> ignore (Gcache.compute cache ~access ~touch ~env ir))
        calls;
      cache
    in
    let hits name cache calls =
      1e6
      *. timed_pass name ~calls:(List.length calls) (fun () ->
             List.iter
               (fun (env, ir) ->
                 if not (snd (Gcache.compute cache ~access ~touch ~env ir)) then
                   failwith "grounding probe: a warm cache missed")
               calls)
    in
    let full = fill calls in
    let lookup_us = hits "probe.gcache.lookup" full calls in
    let enumerate_us =
      1e6
      *. timed_pass "probe.ground.enumerate" ~calls:n (fun () ->
             List.iter
               (fun (env, ir) ->
                 ignore (Gcache.compute ~bypass:true full ~access ~touch ~env ir))
               calls)
    in
    let sixteenth = List.filteri (fun i _ -> i < max 1 (n / 16)) calls in
    let small = fill sixteenth in
    let growth =
      hits "probe.gcache.lookup_full" full sixteenth
      /. hits "probe.gcache.lookup_sixteenth" small sixteenth
    in
    {
      calls = n;
      entries = Gcache.size full;
      lookup_us;
      enumerate_us;
      lookup_growth = growth;
    }
  end

(* --- lock manager --- *)

type lock_op =
  | Request of int * Lock.resource * Lock.mode
  | Release of int  (** commit or abort: release_all *)

let capturing = ref false
let captured : lock_op list ref = ref []
let capture_mu = Mutex.create ()
let push op = Mutex.protect capture_mu (fun () -> captured := op :: !captured)

(* Record every lock request of [engine], and its commit/abort points,
   in the order they happen, until {!stop_lock_capture}. *)
let start_lock_capture engine =
  captured := [];
  capturing := true;
  Lock.set_probe
    (Some (fun ~txn resource mode -> push (Request (txn, resource, mode))));
  Engine.add_on_event engine (function
    | (Engine.Ev_commit txn | Engine.Ev_abort txn) when !capturing -> push (Release txn)
    | _ -> ())

let stop_lock_capture () =
  capturing := false;
  Lock.set_probe None;
  List.rev !captured

(* µs per lock request when the captured stream is replayed in order
   into a fresh lock manager (release_all calls included in the cost). *)
let lock_request_us ops =
  let requests =
    List.length (List.filter (function Request _ -> true | Release _ -> false) ops)
  in
  1e6
  *. timed_pass "probe.lock.replay" ~calls:requests (fun () ->
         let locks = Lock.create () in
         List.iter
           (function
             | Request (txn, resource, mode) ->
               ignore (Lock.request locks ~txn resource mode)
             | Release txn -> ignore (Lock.release_all locks ~txn))
           ops)

(* --- WAL --- *)

(* µs per append when [records] are appended in order to a fresh log,
   with event logging as given. *)
let wal_append_us ~logging records =
  let was = Ent_obs.Event.logging () in
  Ent_obs.Event.set_logging logging;
  Fun.protect
    ~finally:(fun () -> Ent_obs.Event.set_logging was)
    (fun () ->
      1e6
      *. timed_pass
           (if logging then "probe.wal.append_logged" else "probe.wal.append")
           ~calls:(List.length records)
           (fun () ->
             let wal = Wal.create () in
             List.iter (fun r -> ignore (Wal.append wal r)) records))
