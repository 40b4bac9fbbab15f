(* MVCC snapshot reads beside Strict 2PL.

   Four layers of certification for the versioned-table / snapshot-
   isolation tentpole:

   - adversarial version-chain tests against the raw [Table] API
     (visibility closure, GC, chain accounting), on tables whose
     catalog has its chains on;
   - chains belong to their engine: the first snapshot transaction
     turns them on without exposing writes still in flight, and a
     scheduler created on another engine cannot turn them off;
   - the headline lock-manager assertion: a snapshot transaction
     acquires *zero* read locks (asserted on the lock-manager's probe
     stream, with a 2PL control transaction in the same schedule);
   - a differential QCheck battery: the same randomized batch executed
     all-2PL, all-SI and mixed must certify under the level-aware
     checker and agree on committed effects and final table state
     (the workload is write-disjoint, so no SI anomaly can separate
     the levels). *)

open Ent_storage
module Manager = Ent_core.Manager
module Scheduler = Ent_core.Scheduler
module Program = Ent_core.Program
module Engine = Ent_txn.Engine
module Lock = Ent_txn.Lock
module Certify = Ent_schedule.Certify
module Travel = Ent_workload.Travel
module Wgen = Ent_workload.Gen

(* A table of a fresh catalog whose version chains are on, the way an
   engine turns them on at its first snapshot transaction. The switch
   belongs to the catalog, so no other test sees it. *)
let int_table () =
  let catalog = Catalog.create () in
  Catalog.enable_chains catalog;
  Catalog.create_table catalog "T"
    (Schema.make [ { Schema.name = "v"; ty = T_int } ])

let read_live table id = List.assoc_opt id (Table.to_list table)

let check_tuple name expected actual =
  Alcotest.(check (option (list string)))
    name expected
    (Option.map (fun t -> List.map Value.to_string (Tuple.to_list t)) actual)

(* --- version-chain semantics on the raw table --- *)

let test_chain_visibility () =
  let t = int_table () in
  let id = Table.insert t [| Value.Int 1 |] in
  (* writer 0 is bootstrap: visible to every snapshot *)
  ignore (Table.update ~writer:5 t id [| Value.Int 2 |]);
  check_tuple "snapshot before writer 5 sees the bootstrap value"
    (Some [ "1" ])
    (Table.read_at t id ~visible:(fun w -> w = 0));
  check_tuple "snapshot including writer 5 sees the update" (Some [ "2" ])
    (Table.read_at t id ~visible:(fun _ -> true));
  check_tuple "live read sees the update" (Some [ "2" ]) (read_live t id);
  ignore (Table.delete ~writer:7 t id);
  check_tuple "snapshot before the delete still sees the row" (Some [ "2" ])
    (Table.read_at t id ~visible:(fun w -> w <> 7));
  Alcotest.(check bool)
    "snapshot after the delete sees nothing" true
    (Table.read_at t id ~visible:(fun _ -> true) = None);
  Alcotest.(check bool) "chain is non-empty" true (Table.chain_entries t > 0)

let test_uncommitted_insert_invisible () =
  let t = int_table () in
  let _stable = Table.insert t [| Value.Int 10 |] in
  let fresh = Table.insert ~writer:9 t [| Value.Int 99 |] in
  let seen visible =
    List.of_seq (Table.to_seq_at t ~visible)
    |> List.map fst |> List.sort compare
  in
  Alcotest.(check bool)
    "scan-at excludes the in-flight writer's insert" true
    (not (List.mem fresh (seen (fun w -> w <> 9))));
  Alcotest.(check bool)
    "scan-at includes it once the writer is visible" true
    (List.mem fresh (seen (fun _ -> true)))

let test_gc_drains_chains () =
  let t = int_table () in
  let id = Table.insert t [| Value.Int 1 |] in
  ignore (Table.update ~writer:3 t id [| Value.Int 2 |]);
  ignore (Table.update ~writer:4 t id [| Value.Int 3 |]);
  Alcotest.(check bool) "two chain entries live" true (Table.chain_entries t >= 2);
  (* GC below writer 4 keeps the newest reachable entry's history *)
  ignore (Table.gc_versions t ~obsolete:(fun w -> w <= 3));
  check_tuple "live state survives partial GC" (Some [ "3" ]) (read_live t id);
  ignore (Table.gc_versions t ~obsolete:(fun _ -> true));
  Alcotest.(check int) "full GC empties the chains" 0 (Table.chain_entries t);
  check_tuple "live state survives full GC" (Some [ "3" ]) (read_live t id)

(* --- version chains belong to their engine --- *)

(* A scheduler created on an unrelated engine must not change what
   this engine's snapshot readers see: an update by a 2PL writer that
   has not committed stays invisible to a snapshot taken after it. *)
let test_foreign_scheduler_keeps_snapshots () =
  let m = Manager.create ~wal:false () in
  Manager.define_table m "T" [ ("v", Schema.T_int) ];
  Manager.load_row m "T" [ Value.Int 1 ];
  let si =
    Manager.submit m
      (Program.of_string ~label:"si" ~isolation:Engine.Snapshot
         "BEGIN TRANSACTION;\nSELECT v FROM T;\nCOMMIT;")
  in
  Manager.drain m;
  Gen.check_outcome m "snapshot program commits" "committed" si;
  ignore (Scheduler.create (Engine.create (Catalog.create ())));
  let engine = Manager.engine m in
  let writer = Engine.begin_txn engine in
  (Engine.access engine writer ~grounding:false ()).update "T" 0
    [| Value.Int 2 |];
  let reader = Engine.begin_txn ~isolation:Engine.Snapshot engine in
  let seen =
    List.of_seq ((Engine.access engine reader ~grounding:false ()).scan "T")
    |> List.map (fun (_, row) -> Value.to_string (Tuple.get row 0))
  in
  Alcotest.(check (list string))
    "snapshot does not see the uncommitted update" [ "1" ] seen;
  Engine.abort engine writer;
  Engine.abort engine reader

(* The engine's first snapshot transaction turns chains on while a 2PL
   writer that already wrote is still active. That write predates the
   chains, yet the snapshot must not see it, before or after the
   writer commits. *)
let test_chains_on_mid_write () =
  let catalog = Catalog.create () in
  let engine = Engine.create catalog in
  ignore
    (Engine.create_table engine "T"
       (Schema.make [ { Schema.name = "v"; ty = T_int } ]));
  ignore (Engine.load engine "T" [| Value.Int 1 |]);
  let scan txn =
    List.of_seq ((Engine.access engine txn ~grounding:false ()).scan "T")
    |> List.map (fun (_, row) -> Value.to_string (Tuple.get row 0))
  in
  let writer = Engine.begin_txn engine in
  (Engine.access engine writer ~grounding:false ()).update "T" 0
    [| Value.Int 2 |];
  Alcotest.(check bool)
    "a 2PL-only engine keeps chains off" false
    (Catalog.chains_enabled catalog);
  let reader = Engine.begin_txn ~isolation:Engine.Snapshot engine in
  Alcotest.(check bool)
    "the first snapshot turns chains on" true
    (Catalog.chains_enabled catalog);
  Alcotest.(check (list string)) "in-flight write invisible" [ "1" ]
    (scan reader);
  Engine.commit engine writer;
  Alcotest.(check (list string)) "committed after the snapshot: invisible"
    [ "1" ] (scan reader);
  Engine.commit engine reader;
  let later = Engine.begin_txn ~isolation:Engine.Snapshot engine in
  Alcotest.(check (list string)) "a later snapshot sees it" [ "2" ]
    (scan later);
  Engine.commit engine later;
  Engine.gc_versions engine;
  Alcotest.(check int) "chains drain at quiescence" 0
    (Engine.chain_entries engine)

(* --- the headline acceptance assertion: snapshot reads take no locks --- *)

(* One snapshot transaction and one 2PL control transaction run the
   same read-then-write program. The lock-manager probe stream must
   show: zero S/IS requests from the snapshot transaction (its writes
   still take IX/X), and at least one shared request from the control
   (same program, classical locking) — proving the stream would have
   caught a leaked read lock. *)
let test_snapshot_zero_read_locks () =
  let m = Gen.travel_manager () in
  let requests : (int * Lock.mode) list ref = ref [] in
  let si_txns = ref [] in
  Manager.observe m
    ~on_event:(function
      | Engine.Ev_begin (txn, Engine.Snapshot) -> si_txns := txn :: !si_txns
      | _ -> ())
    ~on_entangle:(fun ~event:_ _ -> ());
  let body =
    "BEGIN TRANSACTION;\n\
     SELECT fno FROM Flights;\n\
     INSERT INTO Reserve VALUES ('solo', 'flight', 122);\n\
     COMMIT;"
  in
  Lock.set_probe
    (Some (fun ~txn _resource mode -> requests := (txn, mode) :: !requests));
  Fun.protect ~finally:(fun () -> Lock.set_probe None) @@ fun () ->
  let si =
    Manager.submit m
      (Program.of_string ~label:"si" ~isolation:Engine.Snapshot body)
  in
  let control = Manager.submit m (Program.of_string ~label:"2pl" body) in
  Manager.drain m;
  Gen.check_outcome m "snapshot transaction commits" "committed" si;
  Gen.check_outcome m "control transaction commits" "committed" control;
  Alcotest.(check int) "exactly one snapshot txn began" 1 (List.length !si_txns);
  let of_si (txn, _) = List.mem txn !si_txns in
  let is_read (_, mode) = mode = Lock.S || mode = Lock.IS in
  let si_reqs, other_reqs = List.partition of_si !requests in
  Alcotest.(check int)
    "snapshot transaction acquired zero read locks" 0
    (List.length (List.filter is_read si_reqs));
  Alcotest.(check bool)
    "snapshot transaction still locks its writes" true
    (List.exists (fun (_, m) -> m = Lock.IX || m = Lock.X) si_reqs);
  Alcotest.(check bool)
    "the 2PL control did take read locks (the probe works)" true
    (List.exists is_read other_reqs)

(* --- differential battery: 2pl vs si vs mixed --- *)

let retag level programs =
  let snap (p : Program.t) =
    Program.make ~label:p.label ~transactional:p.transactional
      ~isolation:Engine.Snapshot p.ast
  in
  match level with
  | `All_2pl -> programs
  | `All_si -> List.map snap programs
  | `Mixed -> List.mapi (fun i p -> if i land 1 = 1 then snap p else p) programs

(* Run one randomized batch (entangled pairs + plain social bookings)
   under [level]: returns per-label outcomes, the sorted committed
   Reserve contents, the certifier's verdict, and the version-chain
   residue after the drain. *)
let run_batch ~world_seed ~pairs ~plain level =
  let config =
    { Scheduler.default_config with trigger = Scheduler.Every_arrivals 4 }
  in
  let world = Travel.build ~seed:world_seed ~users:30 ~cities:5 ~config () in
  let certifier = Certify.create () in
  Manager.observe world.Travel.manager
    ~on_event:(Certify.on_engine_event certifier)
    ~on_entangle:(Certify.on_entangle certifier);
  let programs =
    Wgen.batch world ~transactional:true Wgen.Entangled ~n:(2 * pairs)
      ~tag_base:0
    @ Wgen.batch world ~transactional:true Wgen.Social ~n:plain ~tag_base:500
  in
  let programs = retag level programs in
  let ids =
    List.map
      (fun (p : Program.t) ->
        (p.label, Manager.submit world.Travel.manager p))
      programs
  in
  Manager.drain world.Travel.manager;
  let outcomes =
    List.map
      (fun (label, id) ->
        (label, Gen.outcome_name (Manager.outcome world.Travel.manager id)))
      ids
  in
  let reserve =
    List.sort compare
      (List.map
         (fun row -> Array.to_list (Array.map Value.to_string row))
         (Manager.query world.Travel.manager "SELECT uid, fid FROM Reserve"))
  in
  let chains = Engine.chain_entries (Manager.engine world.Travel.manager) in
  (outcomes, reserve, Certify.violations certifier, chains)

let prop_differential_isolation =
  QCheck2.Test.make ~count:20
    ~name:"one batch under 2pl, si and mixed: certifies, agrees, GCs"
    QCheck2.Gen.(triple (int_range 1 4) (int_range 0 5) (int_range 0 999))
    (fun (pairs, plain, world_seed) ->
      let runs =
        List.map
          (fun (name, level) ->
            (name, run_batch ~world_seed ~pairs ~plain level))
          [ ("2pl", `All_2pl); ("si", `All_si); ("mixed", `Mixed) ]
      in
      List.iter
        (fun (name, (outcomes, _, violations, chains)) ->
          if violations <> [] then
            QCheck2.Test.fail_reportf "%s run fails certification: [%s] %s"
              name
              (List.hd violations).Certify.code
              (List.hd violations).Certify.detail;
          if chains <> 0 then
            QCheck2.Test.fail_reportf
              "%s run leaks %d version-chain entries after drain" name chains;
          List.iter
            (fun (label, outcome) ->
              if outcome <> "committed" then
                QCheck2.Test.fail_reportf "%s run: %s %s" name label outcome)
            outcomes)
        runs;
      (* The workload writes disjoint fresh rows, so no SI anomaly is
         possible and every level must produce the same database. *)
      match runs with
      | (_, (o0, r0, _, _)) :: rest ->
        List.iter
          (fun (name, (o, r, _, _)) ->
            if o <> o0 then
              QCheck2.Test.fail_reportf "%s outcomes differ from 2pl" name;
            if r <> r0 then
              QCheck2.Test.fail_reportf
                "%s final Reserve contents differ from 2pl" name)
          rest;
        true
      | [] -> true)

let () =
  Alcotest.run "mvcc"
    [ ( "version-chains",
        [ Alcotest.test_case "visibility closure" `Quick test_chain_visibility;
          Alcotest.test_case "uncommitted insert invisible" `Quick
            test_uncommitted_insert_invisible;
          Alcotest.test_case "gc drains chains" `Quick test_gc_drains_chains;
          Alcotest.test_case "foreign scheduler keeps snapshots" `Quick
            test_foreign_scheduler_keeps_snapshots;
          Alcotest.test_case "chains on mid-write" `Quick
            test_chains_on_mid_write ] );
      ( "locks",
        [ Alcotest.test_case "snapshot reads take zero locks" `Quick
            test_snapshot_zero_read_locks ] );
      ( "differential",
        List.map Gen.to_alcotest [ prop_differential_isolation ] ) ]
