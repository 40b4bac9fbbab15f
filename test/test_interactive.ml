(* Tests for interactive entangled transactions (the §4 "Interactivity"
   extension): statement-at-a-time sessions, online partner matching,
   group commit across sessions, widowed-transaction prevention. *)

open Ent_storage
open Ent_core

let fresh_hub () =
  let catalog = Catalog.create () in
  let engine = Ent_txn.Engine.create ~wal:true catalog in
  ignore
    (Ent_txn.Engine.create_table engine "Flights"
       (Schema.make [ { name = "fno"; ty = T_int }; { name = "dest"; ty = T_str } ]));
  ignore
    (Ent_txn.Engine.create_table engine "Bookings"
       (Schema.make [ { name = "who"; ty = T_str }; { name = "fno"; ty = T_int } ]));
  for i = 1 to 3 do
    ignore (Ent_txn.Engine.load engine "Flights" [| Value.Int i; Value.Str "LA" |])
  done;
  (engine, Interactive.create_hub engine)

let entangled_query me partner =
  Printf.sprintf
    "SELECT '%s', fno AS @fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
     Flights WHERE dest='LA') AND ('%s', fno) IN ANSWER R CHOOSE 1"
    me partner

let bookings engine =
  let access = Ent_sql.Eval.direct_access (Ent_txn.Engine.catalog engine) in
  match
    Ent_sql.Eval.exec_stmt access (Ent_sql.Eval.fresh_env ())
      (Ent_sql.Parser.parse_stmt "SELECT who, fno FROM Bookings")
  with
  | Ent_sql.Eval.Rows rows -> rows
  | _ -> Alcotest.fail "expected rows"

let test_classical_session () =
  let engine, hub = fresh_hub () in
  let s = Interactive.start hub in
  (match Interactive.execute s "INSERT INTO Bookings VALUES ('solo', 1)" with
  | Interactive.Affected 1 -> ()
  | _ -> Alcotest.fail "insert");
  (match Interactive.execute s "SELECT fno FROM Bookings WHERE who = 'solo'" with
  | Interactive.Rows [ [| Value.Int 1 |] ] -> ()
  | _ -> Alcotest.fail "read own write");
  (match Interactive.commit s with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "solo commit should be immediate");
  Alcotest.(check int) "booking persisted" 1 (List.length (bookings engine))

let test_online_coordination () =
  let engine, hub = fresh_hub () in
  let mickey = Interactive.start hub in
  let minnie = Interactive.start hub in
  (* Mickey asks first: no partner online yet. *)
  (match Interactive.execute mickey (entangled_query "Mickey" "Minnie") with
  | Interactive.Parked -> ()
  | _ -> Alcotest.fail "mickey should park");
  Alcotest.(check int) "one parked" 1 (Interactive.parked_count hub);
  (* Minnie arrives: both answered immediately. *)
  (match Interactive.execute minnie (entangled_query "Minnie" "Mickey") with
  | Interactive.Answered [ ("R", [ Value.Str "Minnie"; fno ]) ] ->
    (* Mickey sees the same flight at his next poll. *)
    (match Interactive.poll mickey with
    | Interactive.Answered [ ("R", [ Value.Str "Mickey"; fno' ]) ] ->
      Alcotest.(check string) "same flight" (Value.to_string fno)
        (Value.to_string fno')
    | _ -> Alcotest.fail "mickey not answered")
  | _ -> Alcotest.fail "minnie should be answered immediately");
  (* They book and commit; commit is grouped. *)
  ignore (Interactive.execute mickey "INSERT INTO Bookings VALUES ('Mickey', @fno)");
  ignore (Interactive.execute minnie "INSERT INTO Bookings VALUES ('Minnie', @fno)");
  (match Interactive.commit mickey with
  | Interactive.Commit_pending -> ()
  | _ -> Alcotest.fail "mickey must wait for minnie");
  (match Interactive.commit minnie with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "group should commit now");
  (match Interactive.poll mickey with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "mickey committed too");
  Alcotest.(check int) "both bookings" 2 (List.length (bookings engine))

let test_cancel_while_parked () =
  let _, hub = fresh_hub () in
  let mickey = Interactive.start hub in
  ignore (Interactive.execute mickey (entangled_query "Mickey" "Minnie"));
  Interactive.cancel mickey;
  (match Interactive.poll mickey with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "cancelled session should be aborted");
  Alcotest.(check int) "nothing parked" 0 (Interactive.parked_count hub);
  (* A later partner parks instead of matching the cancelled query. *)
  let minnie = Interactive.start hub in
  match Interactive.execute minnie (entangled_query "Minnie" "Mickey") with
  | Interactive.Parked -> ()
  | _ -> Alcotest.fail "minnie should park (mickey is gone)"

let test_widow_prevention_interactive () =
  let engine, hub = fresh_hub () in
  let mickey = Interactive.start hub in
  let minnie = Interactive.start hub in
  ignore (Interactive.execute mickey (entangled_query "Mickey" "Minnie"));
  ignore (Interactive.execute minnie (entangled_query "Minnie" "Mickey"));
  ignore (Interactive.execute mickey "INSERT INTO Bookings VALUES ('Mickey', @fno)");
  (* Minnie changes her mind after entangling. *)
  Interactive.cancel minnie;
  (match Interactive.poll mickey with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "mickey must be aborted with his partner");
  Alcotest.(check int) "no orphan booking" 0 (List.length (bookings engine))

let test_blocked_statement_retry () =
  let _, hub = fresh_hub () in
  let writer = Interactive.start hub in
  ignore (Interactive.execute writer "UPDATE Flights SET dest = 'SF' WHERE fno = 1");
  let reader = Interactive.start hub in
  (* full scan needs a table S lock; writer holds IX *)
  (match Interactive.execute reader "SELECT fno FROM Flights" with
  | Interactive.Blocked -> ()
  | _ -> Alcotest.fail "reader should block");
  (match Interactive.commit writer with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "writer commits");
  match Interactive.poll reader with
  | Interactive.Rows rows -> Alcotest.(check int) "reader retried" 3 (List.length rows)
  | _ -> Alcotest.fail "reader should succeed after writer commit"

let test_empty_answer_interactive () =
  (* partner present but no acceptable common value: both proceed with
     NULL bindings (Appendix B empty success) *)
  let _, hub = fresh_hub () in
  let a = Interactive.start hub in
  let b = Interactive.start hub in
  let q me partner =
    Printf.sprintf
      "SELECT '%s', fno AS @fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
       Flights WHERE dest='Mars') AND ('%s', fno) IN ANSWER R CHOOSE 1"
      me partner
  in
  ignore (Interactive.execute a (q "a" "b"));
  (match Interactive.execute b (q "b" "a") with
  | Interactive.Answered [] -> ()
  | _ -> Alcotest.fail "empty success for b");
  match Hashtbl.find_opt (Interactive.env b) "fno" with
  | Some Value.Null -> ()
  | _ -> Alcotest.fail "null binding"

let test_three_way_cycle_interactive () =
  let engine, hub = fresh_hub () in
  ignore engine;
  let users = [ "a"; "b"; "c" ] in
  let sessions = List.map (fun _ -> Interactive.start hub) users in
  let next i = List.nth users ((i + 1) mod 3) in
  List.iteri
    (fun i s ->
      let r = Interactive.execute s (entangled_query (List.nth users i) (next i)) in
      if i < 2 then
        match r with
        | Interactive.Parked -> ()
        | _ -> Alcotest.fail "early members park"
      else
        match r with
        | Interactive.Answered _ -> ()
        | _ -> Alcotest.fail "cycle should close on the last arrival")
    sessions;
  List.iter
    (fun s ->
      match Interactive.poll s with
      | Interactive.Answered _ -> ()
      | _ -> Alcotest.fail "all members answered")
    sessions

let test_one_round_two_components () =
  (* Two independent pairs answered in the same evaluation round are two
     entanglement groups: cancelling one pair leaves the other alone. *)
  let _, hub = fresh_hub () in
  let writer = Interactive.start hub in
  ignore (Interactive.execute writer "INSERT INTO Flights VALUES (9, 'SF')");
  (* the writer's lock blocks every grounding read of Flights *)
  let park me partner =
    let s = Interactive.start hub in
    (match Interactive.execute s (entangled_query me partner) with
    | Interactive.Parked -> ()
    | _ -> Alcotest.failf "%s should park behind the writer" me);
    s
  in
  let a1 = park "A1" "A2" in
  let a2 = park "A2" "A1" in
  let b1 = park "B1" "B2" in
  let b2 = park "B2" "B1" in
  (match Interactive.commit writer with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "writer commits");
  (* one poll answers all four queries in one round *)
  (match Interactive.poll a1 with
  | Interactive.Answered _ -> ()
  | _ -> Alcotest.fail "a1 answered after the writer commits");
  Interactive.cancel b1;
  List.iter
    (fun (name, s) ->
      match Interactive.poll s with
      | Interactive.Answered _ -> ()
      | _ -> Alcotest.failf "%s must survive the other pair's cancel" name)
    [ ("a1", a1); ("a2", a2) ];
  match Interactive.poll b2 with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "b2 is aborted with its partner"

let test_merged_group_shares_locks () =
  (* A entangles with B, then B with C: the second operation merges all
     three into one group, which must stay one lock owner. Were only B
     and C retagged, A's insert would block B's scan of the same table
     and the group could never commit. *)
  let _, hub = fresh_hub () in
  let a = Interactive.start hub in
  let b = Interactive.start hub in
  let c = Interactive.start hub in
  let answered s me partner =
    match Interactive.execute s (entangled_query me partner) with
    | Interactive.Answered _ -> ()
    | _ -> Alcotest.failf "%s should be answered" me
  in
  ignore (Interactive.execute a (entangled_query "A" "B"));
  answered b "B" "A";
  ignore (Interactive.execute b (entangled_query "B" "C"));
  answered c "C" "B";
  (match Interactive.execute a "INSERT INTO Bookings VALUES ('A', @fno)" with
  | Interactive.Affected 1 -> ()
  | _ -> Alcotest.fail "a books");
  (match Interactive.execute b "SELECT who FROM Bookings" with
  | Interactive.Rows [ [| Value.Str "A" |] ] -> ()
  | Interactive.Blocked -> Alcotest.fail "b blocked behind its own group"
  | _ -> Alcotest.fail "b should read a's booking");
  List.iter
    (fun s ->
      match Interactive.commit s with
      | Interactive.Commit_pending -> ()
      | _ -> Alcotest.fail "early members wait for the group")
    [ a; b ];
  (match Interactive.commit c with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "the whole group commits");
  match Interactive.poll a with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "a committed with the group"

let test_grounding_deadlock_skips_aborted_partner () =
  (* B and A entangle and both park again; A's grounding deadlocks with
     a classical session W and aborts the group. B, parked in the same
     round, is aborted with it and must not ground on its finished
     transaction: no exception escapes, and no lock request is left
     behind for a transaction that will never release it. *)
  let _, hub = fresh_hub () in
  let b = Interactive.start hub in
  let a = Interactive.start hub in
  let expect what reply ok =
    if not (ok reply) then Alcotest.fail what
  in
  let affected = function Interactive.Affected 1 -> true | _ -> false in
  let aborted = function Interactive.Aborted _ -> true | _ -> false in
  (* grounds on Bookings; its partner never arrives *)
  let bookings_query me =
    Printf.sprintf
      "SELECT '%s', who INTO ANSWER Q WHERE (who) IN (SELECT who FROM \
       Bookings) AND ('Nobody', who) IN ANSWER Q CHOOSE 1"
      me
  in
  ignore (Interactive.execute b (entangled_query "B" "A"));
  expect "a and b entangle"
    (Interactive.execute a (entangled_query "A" "B"))
    (function Interactive.Answered _ -> true | _ -> false);
  let w = Interactive.start hub in
  expect "w books" (Interactive.execute w "INSERT INTO Bookings VALUES ('W', 1)")
    affected;
  expect "a adds a flight"
    (Interactive.execute a "INSERT INTO Flights VALUES (9, 'SF')")
    affected;
  expect "w waits for a's insert"
    (Interactive.execute w "SELECT fno FROM Flights")
    (( = ) Interactive.Blocked);
  expect "b parks behind w's booking"
    (Interactive.execute b (bookings_query "B"))
    (( = ) Interactive.Parked);
  expect "a's grounding closes the cycle"
    (Interactive.execute a (bookings_query "A"))
    aborted;
  expect "b aborts with its group" (Interactive.poll b) aborted;
  expect "w proceeds once the group is gone" (Interactive.poll w)
    (function Interactive.Rows rows -> List.length rows = 3 | _ -> false);
  expect "w commits" (Interactive.commit w) (( = ) Interactive.Committed);
  let x = Interactive.start hub in
  expect "a later writer of Bookings must not block"
    (Interactive.execute x "INSERT INTO Bookings VALUES ('X', 2)")
    affected

let test_api_misuse () =
  let _, hub = fresh_hub () in
  let s = Interactive.start hub in
  ignore (Interactive.execute s "INSERT INTO Bookings VALUES ('x', 1)");
  ignore (Interactive.commit s);
  (* executing on a finished session is a programming error *)
  (try
     ignore (Interactive.execute s "SELECT fno FROM Flights");
     Alcotest.fail "execute after commit accepted"
   with Invalid_argument _ -> ());
  (* committing again is idempotent, polling reports Committed *)
  (match Interactive.commit s with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "re-commit should report Committed");
  (* executing while parked is rejected (poll instead) *)
  let p = Interactive.start hub in
  ignore (Interactive.execute p (entangled_query "P" "Q"));
  (try
     ignore (Interactive.execute p "SELECT fno FROM Flights");
     Alcotest.fail "execute while parked accepted"
   with Invalid_argument _ -> ());
  Interactive.cancel p

let test_parse_error_aborts_session () =
  let _, hub = fresh_hub () in
  let s = Interactive.start hub in
  (match Interactive.execute s "SELEKT nonsense" with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "garbage should abort the session");
  match Interactive.poll s with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "stays aborted"

let test_constraint_in_interactive () =
  let engine, hub = fresh_hub () in
  Ent_txn.Engine.add_constraint engine ~name:"max-one-booking" (fun catalog ->
      match Ent_storage.Catalog.find catalog "Bookings" with
      | Some t -> Ent_storage.Table.cardinal t <= 1
      | None -> true);
  let a = Interactive.start hub in
  ignore (Interactive.execute a "INSERT INTO Bookings VALUES ('a', 1)");
  (match Interactive.commit a with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "first booking fine");
  let b = Interactive.start hub in
  ignore (Interactive.execute b "INSERT INTO Bookings VALUES ('b', 2)");
  match Interactive.commit b with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "second booking must violate"

let () =
  Alcotest.run "interactive"
    [ ( "sessions",
        [ Alcotest.test_case "classical" `Quick test_classical_session;
          Alcotest.test_case "online coordination" `Quick test_online_coordination;
          Alcotest.test_case "cancel while parked" `Quick test_cancel_while_parked;
          Alcotest.test_case "widow prevention" `Quick test_widow_prevention_interactive;
          Alcotest.test_case "blocked retry" `Quick test_blocked_statement_retry;
          Alcotest.test_case "empty answer" `Quick test_empty_answer_interactive;
          Alcotest.test_case "three-way cycle" `Quick test_three_way_cycle_interactive;
          Alcotest.test_case "one round, two components" `Quick
            test_one_round_two_components;
          Alcotest.test_case "merged group shares locks" `Quick
            test_merged_group_shares_locks;
          Alcotest.test_case "deadlock skips aborted partner" `Quick
            test_grounding_deadlock_skips_aborted_partner;
          Alcotest.test_case "api misuse" `Quick test_api_misuse;
          Alcotest.test_case "parse error aborts" `Quick test_parse_error_aborts_session;
          Alcotest.test_case "constraints" `Quick test_constraint_in_interactive ] ) ]
