(* Unit and property tests for the storage substrate. *)

open Ent_storage

let value_testable = Alcotest.testable Value.pp Value.equal

let check_value = Alcotest.check value_testable

(* --- Value --- *)

let test_value_order () =
  Alcotest.(check bool) "null < int" true (Value.compare Null (Int 0) < 0);
  Alcotest.(check bool) "int order" true (Value.compare (Int 1) (Int 2) < 0);
  Alcotest.(check bool)
    "str order" true
    (Value.compare (Str "a") (Str "b") < 0);
  Alcotest.(check bool)
    "cross type deterministic" true
    (Value.compare (Int 5) (Str "a") < 0);
  Alcotest.(check int) "equal dates" 0
    (Value.compare
       (Value.date_of_ymd ~y:2011 ~m:5 ~d:3)
       (Value.date_of_ymd ~y:2011 ~m:5 ~d:3))

let test_date_roundtrip () =
  List.iter
    (fun (y, m, d) ->
      match Value.date_of_ymd ~y ~m ~d with
      | Date days ->
        Alcotest.(check (triple int int int))
          (Printf.sprintf "%d-%d-%d" y m d)
          (y, m, d) (Value.ymd_of_date days)
      | _ -> Alcotest.fail "date_of_ymd did not build a date")
    [ (1970, 1, 1); (2011, 5, 3); (2000, 2, 29); (1969, 12, 31); (2100, 3, 1) ]

let test_date_parse () =
  (match Value.parse_date "2011-05-03" with
  | Some (Date _ as d) ->
    Alcotest.(check string) "print" "2011-05-03" (Value.to_string d)
  | _ -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "reject garbage" true (Value.parse_date "hello" = None);
  Alcotest.(check bool)
    "reject bad month" true
    (Value.parse_date "2011-13-03" = None)

let test_date_arith () =
  let arrival = Value.date_of_ymd ~y:2011 ~m:5 ~d:3 in
  let departure = Value.date_of_ymd ~y:2011 ~m:5 ~d:6 in
  (* The paper's @StayLength = '2011-05-06' - @ArrivalDay computation. *)
  check_value "stay length" (Int 3) (Value.sub departure arrival);
  check_value "date + days" departure (Value.add arrival (Int 3));
  check_value "null propagates" Null (Value.add Null (Int 1))

let test_arith_errors () =
  Alcotest.check_raises "date*date"
    (Value.Type_error "cannot multiply date and date") (fun () ->
      ignore (Value.mul (Value.date_of_ymd ~y:2011 ~m:1 ~d:1)
                (Value.date_of_ymd ~y:2011 ~m:1 ~d:2)));
  Alcotest.check_raises "div by zero" (Value.Type_error "division by zero")
    (fun () -> ignore (Value.div (Int 1) (Int 0)))

let test_of_literal () =
  check_value "int" (Int 42) (Value.of_literal "42");
  check_value "date"
    (Value.date_of_ymd ~y:2011 ~m:5 ~d:3)
    (Value.of_literal "2011-05-03");
  check_value "string" (Str "LA") (Value.of_literal "LA");
  check_value "bool" (Bool true) (Value.of_literal "true");
  check_value "null" Null (Value.of_literal "NULL")

(* --- Schema / Tuple --- *)

let flights_schema =
  Schema.make
    [ { name = "fno"; ty = T_int };
      { name = "fdate"; ty = T_date };
      { name = "dest"; ty = T_str } ]

let may3 = Value.date_of_ymd ~y:2011 ~m:5 ~d:3

let test_schema_positions () =
  Alcotest.(check int) "fno" 0 (Schema.index_of flights_schema "fno");
  Alcotest.(check int) "dest" 2 (Schema.index_of flights_schema "dest");
  Alcotest.(check bool) "mem" true (Schema.mem flights_schema "fdate");
  Alcotest.(check bool) "not mem" false (Schema.mem flights_schema "hotel");
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Schema.make: duplicate column x") (fun () ->
      ignore (Schema.make [ { name = "x"; ty = T_int }; { name = "x"; ty = T_int } ]))

let test_tuple_checking () =
  let row = Tuple.make flights_schema [ Int 122; may3; Str "LA" ] in
  Alcotest.(check int) "arity" 3 (Tuple.arity row);
  check_value "get" (Str "LA") (Tuple.get row 2);
  (try
     ignore (Tuple.make flights_schema [ Str "oops"; may3; Str "LA" ]);
     Alcotest.fail "type mismatch accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Tuple.make flights_schema [ Int 1 ]);
    Alcotest.fail "arity mismatch accepted"
  with Invalid_argument _ -> ()

let test_tuple_project () =
  let row = Tuple.make flights_schema [ Int 122; may3; Str "LA" ] in
  let projected = Tuple.project row [ 2; 0 ] in
  check_value "first" (Str "LA") (Tuple.get projected 0);
  check_value "second" (Int 122) (Tuple.get projected 1)

(* --- Table --- *)

let sample_table () =
  let t = Table.create ~name:"Flights" flights_schema in
  let id1 = Table.insert t [| Int 122; may3; Str "LA" |] in
  let id2 =
    Table.insert t [| Int 123; Value.date_of_ymd ~y:2011 ~m:5 ~d:4; Str "LA" |]
  in
  let id3 = Table.insert t [| Int 124; may3; Str "LA" |] in
  let id4 =
    Table.insert t
      [| Int 235; Value.date_of_ymd ~y:2011 ~m:5 ~d:5; Str "Paris" |]
  in
  (t, id1, id2, id3, id4)

let test_table_basics () =
  let t, id1, _, _, id4 = sample_table () in
  Alcotest.(check int) "cardinal" 4 (Table.cardinal t);
  (match Table.get t id1 with
  | Some row -> check_value "fno" (Int 122) (Tuple.get row 0)
  | None -> Alcotest.fail "row missing");
  ignore (Table.delete t id4);
  Alcotest.(check int) "after delete" 3 (Table.cardinal t);
  Alcotest.(check bool) "deleted gone" true (Table.get t id4 = None);
  Alcotest.(check bool) "double delete" true (Table.delete t id4 = None)

let test_table_scan_order () =
  let t, id1, id2, id3, id4 = sample_table () in
  let ids = List.map fst (Table.to_list t) in
  Alcotest.(check (list int)) "insertion order" [ id1; id2; id3; id4 ] ids

let test_table_update () =
  let t, id1, _, _, _ = sample_table () in
  let old = Table.update t id1 [| Int 122; may3; Str "SFO" |] in
  (match old with
  | Some row -> check_value "old dest" (Str "LA") (Tuple.get row 2)
  | None -> Alcotest.fail "update failed");
  match Table.get t id1 with
  | Some row -> check_value "new dest" (Str "SFO") (Tuple.get row 2)
  | None -> Alcotest.fail "row missing after update"

let test_table_restore () =
  let t, id1, _, _, _ = sample_table () in
  let row = Option.get (Table.delete t id1) in
  Table.restore t id1 row;
  Alcotest.(check int) "cardinal back" 4 (Table.cardinal t);
  (match Table.get t id1 with
  | Some r -> check_value "restored" (Int 122) (Tuple.get r 0)
  | None -> Alcotest.fail "restore lost row");
  try
    Table.restore t id1 row;
    Alcotest.fail "restore over live row accepted"
  with Invalid_argument _ -> ()

let test_table_index_lookup () =
  let t, id1, _, id3, _ = sample_table () in
  Table.add_index t ~positions:[ 2 ];
  let la = Table.lookup t ~positions:[ 2 ] [ Str "LA" ] in
  Alcotest.(check int) "LA flights" 3 (List.length la);
  (* Index and scan must agree. *)
  let scan =
    Table.lookup (Table.create flights_schema) ~positions:[ 2 ] [ Str "LA" ]
  in
  Alcotest.(check int) "empty table" 0 (List.length scan);
  let dated = Table.lookup t ~positions:[ 1; 2 ] [ may3; Str "LA" ] in
  Alcotest.(check (list int)) "composite scan" [ id1; id3 ] (List.map fst dated);
  ignore (Table.delete t id1);
  let la' = Table.lookup t ~positions:[ 2 ] [ Str "LA" ] in
  Alcotest.(check int) "index sees delete" 2 (List.length la')

let test_table_index_update_maintenance () =
  let t, id1, _, _, _ = sample_table () in
  Table.add_index t ~positions:[ 2 ];
  ignore (Table.update t id1 [| Int 122; may3; Str "SFO" |]);
  Alcotest.(check int) "old key gone" 2
    (List.length (Table.lookup t ~positions:[ 2 ] [ Str "LA" ]));
  Alcotest.(check (list int))
    "new key present" [ id1 ]
    (List.map fst (Table.lookup t ~positions:[ 2 ] [ Str "SFO" ]))

let test_catalog () =
  let cat = Catalog.create () in
  let t = Catalog.create_table cat "Flights" flights_schema in
  Alcotest.(check string) "name" "Flights" (Table.name t);
  Alcotest.(check bool) "mem" true (Catalog.mem cat "Flights");
  Alcotest.(check bool) "case sensitive" false (Catalog.mem cat "flights");
  (try
     ignore (Catalog.create_table cat "Flights" flights_schema);
     Alcotest.fail "duplicate table accepted"
   with Invalid_argument _ -> ());
  Catalog.drop cat "Flights";
  Alcotest.(check bool) "dropped" false (Catalog.mem cat "Flights")

(* --- ordered indexes --- *)

let test_ordered_index_range () =
  let ox = Ordered_index.create ~position:0 in
  List.iter (fun (v, id) -> Ordered_index.insert ox (Value.Int v) id)
    [ (5, 0); (1, 1); (9, 2); (5, 3); (7, 4) ];
  Alcotest.(check (list int)) "full range" [ 1; 0; 3; 4; 2 ]
    (Ordered_index.range ox ~lo:Unbounded ~hi:Unbounded);
  Alcotest.(check (list int)) "closed interval" [ 0; 3; 4 ]
    (Ordered_index.range ox ~lo:(Inclusive (Int 5)) ~hi:(Inclusive (Int 7)));
  Alcotest.(check (list int)) "open below" [ 4 ]
    (Ordered_index.range ox ~lo:(Exclusive (Int 5)) ~hi:(Exclusive (Int 9)));
  Ordered_index.remove ox (Value.Int 5) 0;
  Alcotest.(check (list int)) "after removal" [ 3 ]
    (Ordered_index.range ox ~lo:(Inclusive (Int 5)) ~hi:(Inclusive (Int 5)))

let test_table_range_lookup () =
  let t, _, _, _, _ = sample_table () in
  let expect_fnos msg lo hi expected =
    let rows = Table.range_lookup t ~position:0 ~lo ~hi in
    Alcotest.(check (list string)) msg expected
      (List.map (fun (_, r) -> Value.to_string (Tuple.get r 0)) rows)
  in
  (* without an index: scan fallback *)
  expect_fnos "scan fallback" (Inclusive (Int 123)) (Inclusive (Int 235))
    [ "123"; "124"; "235" ];
  Table.add_ordered_index t ~position:0;
  Alcotest.(check bool) "index exists" true (Table.has_ordered_index t ~position:0);
  expect_fnos "indexed" (Inclusive (Int 123)) (Inclusive (Int 235))
    [ "123"; "124"; "235" ];
  (* maintenance across update and delete *)
  ignore (Table.update t 0 [| Int 500; may3; Str "LA" |]);
  ignore (Table.delete t 1);
  expect_fnos "after update/delete" (Inclusive (Int 200)) Unbounded
    [ "235"; "500" ]

(* --- versions (the grounding cache's contract) --- *)

let test_version_changelog () =
  let t = Table.create (Schema.of_names [ "a" ]) in
  let v0 = Table.version t in
  let id = Table.insert t [| Value.Int 1 |] in
  Alcotest.(check bool) "insert bumps version" true (Table.version t > v0);
  let v1 = Table.version t in
  ignore (Table.update t id [| Value.Int 2 |]);
  Alcotest.(check bool) "update bumps version" true (Table.version t > v1);
  let v2 = Table.version t in
  ignore (Table.delete t id);
  Alcotest.(check bool) "delete bumps version" true (Table.version t > v2);
  (* rollback compensations are writes too *)
  let v3 = Table.version t in
  Table.restore t id [| Value.Int 1 |];
  Alcotest.(check bool) "restore bumps version" true (Table.version t > v3)

let test_changelog_truncation () =
  (* the version is a plain counter: no bound on the writes it tells
     apart, so no write can hide behind an earlier one *)
  let t = Table.create (Schema.of_names [ "a" ]) in
  let v0 = Table.version t in
  for i = 1 to 1000 do
    ignore (Table.insert t [| Value.Int i |])
  done;
  Alcotest.(check int) "one bump per write" (v0 + 1000) (Table.version t)

let test_changelog_reshape () =
  let t = Table.create (Schema.of_names [ "a"; "b" ]) in
  ignore (Table.insert t [| Value.Int 1; Value.Int 2 |]);
  let v = Table.version t in
  (* a new index can change plan-dependent result order, so it must
     invalidate cached readers like a write does *)
  Table.add_index t ~positions:[ 0 ];
  let v' = Table.version t in
  Alcotest.(check bool) "new index bumps version" true (v' > v);
  Table.clear t;
  Alcotest.(check bool) "clear bumps version" true (Table.version t > v')

let prop_range_matches_scan =
  let op_gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60) (int_range (-20) 20))
        (pair (int_range (-20) 20) (int_range (-20) 20)))
  in
  QCheck2.Test.make ~name:"range lookup equals scan filter" ~count:200 op_gen
    (fun (values, (a, b)) ->
      let lo = min a b and hi = max a b in
      let schema = Schema.of_names [ "k" ] in
      let indexed = Table.create schema in
      Table.add_ordered_index indexed ~position:0;
      let plain = Table.create schema in
      List.iter
        (fun v ->
          ignore (Table.insert indexed [| Value.Int v |]);
          ignore (Table.insert plain [| Value.Int v |]))
        values;
      let ids t =
        List.sort Int.compare
          (List.map fst
             (Table.range_lookup t ~position:0
                ~lo:(Ordered_index.Inclusive (Int lo))
                ~hi:(Ordered_index.Inclusive (Int hi))))
      in
      ids indexed = ids plain)

(* --- Properties --- *)

let value_gen =
  let open QCheck2.Gen in
  oneof
    [ return Value.Null;
      map (fun b -> Value.Bool b) bool;
      map (fun i -> Value.Int i) (int_range (-1000) 1000);
      map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 8));
      map (fun d -> Value.Date d) (int_range (-100000) 100000) ]

let prop_value_compare_total =
  QCheck2.Test.make ~name:"Value.compare is a total order"
    ~count:500
    QCheck2.Gen.(triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      let sign x = Stdlib.compare x 0 in
      (* antisymmetry *)
      sign (Value.compare a b) = -sign (Value.compare b a)
      (* transitivity on the <= relation *)
      && (not (Value.compare a b <= 0 && Value.compare b c <= 0)
          || Value.compare a c <= 0))

let prop_value_hash_consistent =
  QCheck2.Test.make ~name:"equal values hash equally" ~count:500
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_date_roundtrip =
  QCheck2.Test.make ~name:"civil date roundtrip" ~count:1000
    (QCheck2.Gen.int_range (-200000) 200000)
    (fun days ->
      let y, m, d = Value.ymd_of_date days in
      Value.equal (Value.date_of_ymd ~y ~m ~d) (Date days))

let prop_index_matches_scan =
  (* Random inserts/deletes: indexed lookup must equal a full scan. *)
  let op_gen =
    QCheck2.Gen.(
      list_size (int_range 0 120)
        (pair bool (pair (int_range 0 5) (int_range 0 5))))
  in
  QCheck2.Test.make ~name:"index lookup equals scan" ~count:200 op_gen
    (fun ops ->
      let schema = Schema.of_names [ "a"; "b" ] in
      let indexed = Table.create schema in
      Table.add_index indexed ~positions:[ 0 ];
      let plain = Table.create schema in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (is_insert, (a, b)) ->
          if is_insert then begin
            let row = [| Value.Int a; Value.Int b |] in
            let id = Table.insert indexed row in
            let id' = Table.insert plain row in
            assert (id = id');
            Hashtbl.replace live id ()
          end
          else begin
            (* delete some live row deterministically: smallest id with key a *)
            match Table.lookup plain ~positions:[ 0 ] [ Value.Int a ] with
            | (id, _) :: _ ->
              ignore (Table.delete indexed id);
              ignore (Table.delete plain id);
              Hashtbl.remove live id
            | [] -> ()
          end)
        ops;
      List.for_all
        (fun key ->
          let by_index =
            List.map fst (Table.lookup indexed ~positions:[ 0 ] [ Value.Int key ])
          in
          let by_scan =
            List.map fst (Table.lookup plain ~positions:[ 0 ] [ Value.Int key ])
          in
          by_index = by_scan)
        [ 0; 1; 2; 3; 4; 5 ])

let properties =
  List.map Gen.to_alcotest
    [ prop_value_compare_total;
      prop_value_hash_consistent;
      prop_date_roundtrip;
      prop_index_matches_scan;
      prop_range_matches_scan ]

let () =
  Alcotest.run "storage"
    [ ( "value",
        [ Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "date roundtrip" `Quick test_date_roundtrip;
          Alcotest.test_case "date parse" `Quick test_date_parse;
          Alcotest.test_case "date arithmetic" `Quick test_date_arith;
          Alcotest.test_case "arith errors" `Quick test_arith_errors;
          Alcotest.test_case "of_literal" `Quick test_of_literal ] );
      ( "schema-tuple",
        [ Alcotest.test_case "positions" `Quick test_schema_positions;
          Alcotest.test_case "type checking" `Quick test_tuple_checking;
          Alcotest.test_case "projection" `Quick test_tuple_project ] );
      ( "table",
        [ Alcotest.test_case "insert/get/delete" `Quick test_table_basics;
          Alcotest.test_case "scan order" `Quick test_table_scan_order;
          Alcotest.test_case "update" `Quick test_table_update;
          Alcotest.test_case "restore" `Quick test_table_restore;
          Alcotest.test_case "index lookup" `Quick test_table_index_lookup;
          Alcotest.test_case "index maintenance" `Quick
            test_table_index_update_maintenance;
          Alcotest.test_case "catalog" `Quick test_catalog;
          Alcotest.test_case "ordered index" `Quick test_ordered_index_range;
          Alcotest.test_case "range lookup" `Quick test_table_range_lookup ] );
      ( "changelog",
        [ Alcotest.test_case "versions and changes" `Quick test_version_changelog;
          Alcotest.test_case "truncation" `Quick test_changelog_truncation;
          Alcotest.test_case "reshape" `Quick test_changelog_reshape ] );
      ("properties", properties) ]
