(* Multicore execution (DESIGN.md §9): shard boundaries of the sharded
   lock manager, agreement of the static (entlint) lock order with what
   a transaction acquires through the sharded manager, equivalence of
   parallel (--parallel N) and deterministic runs over the same
   workload, and two schedulers in one process that each get what they
   get alone. *)

(* alias the shared test module before [open Ent_workload] shadows [Gen] *)
module Tgen = Gen
open Ent_core
open Ent_workload
module Lock = Ent_txn.Lock
module Pool = Ent_par.Pool
module Certify = Ent_schedule.Certify

(* --- shard boundaries --- *)

(* A row of [table] on a different shard than [r], and one on the same
   shard; both exist because the shard map is a hash of the whole
   resource, and we probe as many keys as shards. *)
let row_on ~table ~same r =
  let target = Lock.shard_of r in
  let rec go i =
    if i > 100 * Lock.shard_count then
      Alcotest.failf "no row of %s with same-shard=%b found" table same
    else if (Lock.shard_of (Lock.Row (table, i)) = target) = same
            && Lock.Row (table, i) <> r
    then Lock.Row (table, i)
    else go (i + 1)
  in
  go 0

let test_shard_map () =
  Alcotest.(check bool) "at least two shards" true (Lock.shard_count > 1);
  List.iter
    (fun r ->
      let s = Lock.shard_of r in
      Alcotest.(check bool) "in range" true (s >= 0 && s < Lock.shard_count);
      Alcotest.(check int) "pure" s (Lock.shard_of r))
    [ Lock.Table "Flights"; Lock.Row ("Flights", 3); Lock.Row ("Reserve", 17) ]

let test_cross_shard_no_contention () =
  let lm = Lock.create () in
  let a = Lock.Row ("Reserve", 0) in
  let b = row_on ~table:"Reserve" ~same:false a in
  Alcotest.(check bool) "X on a granted" true
    (Lock.request lm ~txn:1 a X = Lock.Granted);
  Alcotest.(check bool) "X on b granted" true
    (Lock.request lm ~txn:2 b X = Lock.Granted);
  Alcotest.(check (list int)) "txn 1 blocked by nobody" []
    (Lock.blockers lm ~txn:1);
  Alcotest.(check (list int)) "txn 2 blocked by nobody" []
    (Lock.blockers lm ~txn:2);
  Alcotest.(check bool) "txn 2 not waiting" false (Lock.is_waiting lm ~txn:2);
  Alcotest.(check int) "both entries live" 2 (List.length (Lock.dump lm))

let test_same_shard_disjoint_rows () =
  (* same shard means shared internal synchronization, never a false
     lock conflict *)
  let lm = Lock.create () in
  let a = Lock.Row ("Reserve", 0) in
  let b = row_on ~table:"Reserve" ~same:true a in
  Alcotest.(check bool) "X on a granted" true
    (Lock.request lm ~txn:1 a X = Lock.Granted);
  Alcotest.(check bool) "X on b granted" true
    (Lock.request lm ~txn:2 b X = Lock.Granted);
  Alcotest.(check (list int)) "no blockers" [] (Lock.blockers lm ~txn:2)

let test_same_resource_still_conflicts () =
  let lm = Lock.create () in
  let a = Lock.Row ("Reserve", 0) in
  Alcotest.(check bool) "first X granted" true
    (Lock.request lm ~txn:1 a X = Lock.Granted);
  Alcotest.(check bool) "second X waits" true
    (Lock.request lm ~txn:2 a X = Lock.Waiting);
  Alcotest.(check (list int)) "blocked by txn 1" [ 1 ]
    (Lock.blockers lm ~txn:2);
  let woken = Lock.release_all lm ~txn:1 in
  Alcotest.(check (list int)) "txn 2 woken" [ 2 ] woken

(* --- static lock order vs the sharded manager --- *)

(* Replay entlint's statically-computed lock sequence (Summary, the
   same order the conflict matrix's lock-order edges are built from)
   through a sharded lock manager: every acquisition must be granted
   immediately and in the static order, even across shard boundaries,
   and every matrix lock-order edge must agree with the replayed
   first-acquisition order. *)
let test_static_lock_order_across_shards () =
  let src = Tgen.travel_program "Mickey" "Minnie" in
  let program = Program.make ~label:"travel" (Ent_sql.Parser.parse_program src) in
  let summary = Ent_analysis.Summary.of_program program in
  let seq = Ent_analysis.Summary.lock_sequence summary in
  Alcotest.(check bool) "sequence nonempty" true (seq <> []);
  let tables = List.map (fun (t, _, _, _) -> t) seq in
  let crosses_shards =
    List.exists2
      (fun u v -> Lock.shard_of (Lock.Table u) <> Lock.shard_of (Lock.Table v))
      (List.filteri (fun i _ -> i < List.length tables - 1) tables)
      (List.tl tables)
  in
  Alcotest.(check bool) "sequence crosses a shard boundary" true crosses_shards;
  let lm = Lock.create () in
  let acquired = ref [] in
  List.iter
    (fun (table, mode, _, _) ->
      let m = match mode with `S -> Lock.S | `X -> Lock.X in
      Alcotest.(check bool)
        (Printf.sprintf "%s granted in static order" table)
        true
        (Lock.request lm ~txn:1 (Lock.Table table) m = Lock.Granted);
      if not (List.mem table !acquired) then acquired := !acquired @ [ table ];
      (* Strict 2PL: everything acquired earlier is still held *)
      List.iter
        (fun held ->
          Alcotest.(check bool)
            (Printf.sprintf "%s still held" held)
            true
            (Lock.held lm ~txn:1 (Lock.Table held) <> None))
        !acquired)
    seq;
  let matrix =
    Ent_analysis.Matrix.analyze [ { source = "travel"; program } ]
  in
  let index t =
    let rec go i = function
      | [] -> Alcotest.failf "edge table %s not in lock sequence" t
      | u :: _ when u = t -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 !acquired
  in
  Alcotest.(check bool) "matrix has lock-order edges" true
    (matrix.Ent_analysis.Matrix.edges <> []);
  List.iter
    (fun (e : Ent_analysis.Matrix.edge) ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %s -> %s respects acquisition order"
           e.eu e.ev)
        true
        (index e.eu < index e.ev))
    matrix.Ent_analysis.Matrix.edges

(* --- parallel/deterministic equivalence --- *)

let final_tables (world : Travel.t) =
  let catalog = Manager.catalog world.manager in
  List.map
    (fun name ->
      let rows =
        match Ent_storage.Catalog.find catalog name with
        | None -> []
        | Some t ->
          List.map
            (fun (_, row) ->
              List.map Ent_storage.Value.to_string
                (Ent_storage.Tuple.to_list row))
            (Ent_storage.Table.to_list t)
      in
      (name, List.sort compare rows))
    (List.sort compare (Ent_storage.Catalog.table_names catalog))

let run_case ~domains ~kind ~n =
  let runner = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown runner)
  @@ fun () ->
  let config =
    {
      Scheduler.default_config with
      connections = 20;
      trigger = Scheduler.Every_arrivals 25;
      runner;
    }
  in
  let world = Travel.build ~users:120 ~cities:6 ~config () in
  let c = Certify.create () in
  Manager.observe world.manager ~on_event:(Certify.on_engine_event c)
    ~on_entangle:(Certify.on_entangle c);
  let programs = Gen.batch world ~transactional:true kind ~n ~tag_base:0 in
  let ids = List.map (Manager.submit world.manager) programs in
  Manager.drain world.manager;
  let committed =
    List.filter
      (fun id -> Manager.outcome world.manager id = Some Scheduler.Committed)
      ids
  in
  (Certify.ok c, List.sort compare committed, final_tables world)

let prop_parallel_matches_deterministic =
  let kinds = [ Gen.No_social; Gen.Social; Gen.Entangled ] in
  let kind_name = function
    | Gen.No_social -> "nosocial"
    | Gen.Social -> "social"
    | Gen.Entangled -> "entangled"
  in
  let gen =
    QCheck2.Gen.(triple (int_range 2 4) (int_range 20 60) (oneofl kinds))
  in
  (* The name is kept short enough that the 80-column test report prints
     it whole: a truncated name changes with the suite-column width. *)
  QCheck2.Test.make ~count:6
    ~name:"parallel run certifies and matches"
    ~print:(fun (d, n, k) -> Printf.sprintf "domains=%d n=%d kind=%s" d n (kind_name k))
    gen
    (fun (domains, n, kind) ->
      let det_ok, det_committed, det_tables = run_case ~domains:1 ~kind ~n in
      let par_ok, par_committed, par_tables = run_case ~domains ~kind ~n in
      if not det_ok then QCheck2.Test.fail_report "deterministic run failed certification";
      if not par_ok then QCheck2.Test.fail_report "parallel run failed certification";
      if det_committed <> par_committed then
        QCheck2.Test.fail_report "committed-transaction sets differ";
      if det_tables <> par_tables then
        QCheck2.Test.fail_report "final table states differ";
      true)

(* --- two schedulers in one process ---

   A 2-domain scheduler running mixed 2PL/SI programs and a one-domain
   all-2PL scheduler on their own engines, interleaved submit by submit
   and drain by drain. Storage locking, event buffering and version
   chains follow each engine and the running parallel region, not the
   newest scheduler, so each side gets exactly what it gets alone. *)

let snapshot (p : Program.t) =
  Program.make ~label:p.label ~transactional:p.transactional
    ~isolation:Ent_txn.Engine.Snapshot p.ast

type side = {
  world : Travel.t;
  certifier : Certify.t;
  chunks : Program.t list array;
  runner : Pool.t;
  mutable ids : int list;
}

(* A snapshot program recording how many Reserve rows its snapshot
   holds. It runs last in its chunk, so the count covers exactly the
   rows committed by earlier chunks: an insert of its own run that it
   counted would be a dirty read, and would show in the final tables. *)
let counter c =
  Program.of_string ~label:(Printf.sprintf "count-%d" c)
    ~isolation:Ent_txn.Engine.Snapshot
    (Printf.sprintf
       "BEGIN TRANSACTION;\n\
        SELECT COUNT(*) AS @n FROM Reserve;\n\
        INSERT INTO Reserve (uid, fid) VALUES (%d, @n);\n\
        COMMIT;"
       (100_000 + c))

let side ~domains ~mixed ~seed =
  let runner = Pool.create ~domains in
  let config =
    {
      Scheduler.default_config with
      connections = 20;
      trigger = Scheduler.Manual;
      runner;
    }
  in
  let world = Travel.build ~seed ~users:60 ~cities:5 ~config () in
  let certifier = Certify.create () in
  Manager.observe world.manager ~on_event:(Certify.on_engine_event certifier)
    ~on_entangle:(Certify.on_entangle certifier);
  let batch kind tag_base =
    Gen.batch world ~transactional:true kind ~n:20 ~tag_base
  in
  let programs =
    List.concat
      (List.map2 (fun a b -> [ a; b ])
         (batch Gen.Entangled 0) (batch Gen.Social 100))
  in
  let programs =
    if mixed then
      List.mapi (fun i p -> if i land 1 = 1 then snapshot p else p) programs
    else programs
  in
  let chunks =
    Array.init 4 (fun c ->
        List.filteri (fun i _ -> i / 10 = c) programs
        @ if mixed then [ counter c ] else [])
  in
  { world; certifier; chunks; runner; ids = [] }

let submit_chunk s c =
  s.ids <- s.ids @ List.map (Manager.submit s.world.manager) s.chunks.(c)

let drain s = Manager.drain s.world.manager

let verdict s =
  Pool.shutdown s.runner;
  let committed =
    List.filter
      (fun id -> Manager.outcome s.world.manager id = Some Scheduler.Committed)
      s.ids
  in
  (Certify.ok s.certifier, List.sort compare committed, final_tables s.world)

let pooled () = side ~domains:2 ~mixed:true ~seed:7
let plain () = side ~domains:1 ~mixed:false ~seed:11

let solo s =
  Array.iteri
    (fun c _ ->
      submit_chunk s c;
      drain s)
    s.chunks;
  verdict s

let test_interleaved_schedulers () =
  let pooled_alone = solo (pooled ()) in
  let plain_alone = solo (plain ()) in
  let a = pooled () in
  (* the one-domain scheduler is created after the pooled one has
     snapshot programs waiting *)
  submit_chunk a 0;
  let b = plain () in
  Array.iteri
    (fun c _ ->
      if c > 0 then submit_chunk a c;
      submit_chunk b c;
      drain a;
      drain b)
    a.chunks;
  let check name (ok_alone, committed_alone, tables_alone) s =
    let ok, committed, tables = verdict s in
    Alcotest.(check bool) (name ^ ": certifier verdict") ok_alone ok;
    Alcotest.(check bool) (name ^ ": certifies") true ok;
    Alcotest.(check (list int)) (name ^ ": committed tasks") committed_alone
      committed;
    Alcotest.(check bool) (name ^ ": final tables") true
      (tables = tables_alone)
  in
  check "pooled mixed" pooled_alone a;
  check "one-domain 2PL" plain_alone b

let () =
  Alcotest.run "parallel"
    [
      ( "shards",
        [
          Alcotest.test_case "shard map" `Quick test_shard_map;
          Alcotest.test_case "cross-shard no contention" `Quick
            test_cross_shard_no_contention;
          Alcotest.test_case "same-shard disjoint rows" `Quick
            test_same_shard_disjoint_rows;
          Alcotest.test_case "same resource conflicts" `Quick
            test_same_resource_still_conflicts;
          Alcotest.test_case "static lock order across shards" `Quick
            test_static_lock_order_across_shards;
        ] );
      ( "equivalence",
        [ Tgen.to_alcotest prop_parallel_matches_deterministic;
          Alcotest.test_case "interleaved schedulers match solo" `Quick
            test_interleaved_schedulers ] );
    ]
