open Relalg
open Distsim
module M = Scenario.Medical
module SC = Scenario.Supply_chain

let c = Alcotest.test_case
let check = Alcotest.check

let planned catalog policy plan =
  match Planner.Safe_planner.plan catalog policy plan with
  | Ok r -> r.Planner.Safe_planner.assignment
  | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f

let run catalog instances plan assignment =
  match Engine.execute catalog ~instances plan assignment with
  | Ok o -> o
  | Error e -> Alcotest.failf "%a" Engine.pp_error e

let test_medical_result () =
  let plan = M.example_plan () in
  let { Engine.result; location; network; _ } =
    run M.catalog M.instances plan (planned M.catalog M.policy plan)
  in
  check Helpers.server "at S_H" M.s_h location;
  (* c1, c2, c5 are insured, hospitalized and registered. *)
  check Alcotest.int "three answers" 3 (Relation.cardinality result);
  check Helpers.relation "equals centralized"
    (Engine.centralized ~instances:M.instances plan)
    result;
  check Alcotest.int "three transfers" 3 (Network.message_count network)

let test_semijoin_wire_reduction () =
  (* The semi-join back-leg carries only the joinable tuples (3), not
     the whole Nat_registry (8). *)
  let plan = M.example_plan () in
  let { Engine.network; _ } =
    run M.catalog M.instances plan (planned M.catalog M.policy plan)
  in
  let back =
    List.find
      (fun m -> m.Network.note = "semi-join result for n1")
      (Network.messages network)
  in
  check Alcotest.int "reduced operand" 3
    (Relation.cardinality (Network.data back));
  let fwd =
    List.find
      (fun m -> m.Network.note = "join attributes for n1")
      (Network.messages network)
  in
  check Alcotest.(list string) "only the join attribute" [ "Patient" ]
    (List.map Attribute.name (Relation.header (Network.data fwd)))

let test_message_profiles_match_planner () =
  (* The engine recomputes profiles independently; they must coincide
     with the planning-time flow profiles. *)
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let { Engine.network; _ } = run M.catalog M.instances plan assignment in
  let flows =
    Helpers.check_ok Planner.Safety.pp_error
      (Planner.Safety.flows M.catalog plan assignment)
  in
  let msgs = Network.messages network in
  check Alcotest.int "same count" (List.length flows) (List.length msgs);
  List.iter2
    (fun (f : Planner.Safety.flow) (m : Network.message) ->
      check Helpers.profile "profile agreement" f.profile m.Network.profile;
      check Helpers.server "sender" f.sender m.Network.sender;
      check Helpers.server "receiver" f.receiver m.Network.receiver)
    flows msgs

let test_supply_chain_tracking () =
  let plan = SC.tracking_plan () in
  let { Engine.result; _ } =
    run SC.catalog SC.instances plan (planned SC.catalog SC.policy plan)
  in
  check Helpers.relation "equals centralized"
    (Engine.centralized ~instances:SC.instances plan)
    result;
  (* o1->alice/FastShip and o3->carol/SlowBoat ship; o9 dangles. *)
  check Alcotest.int "two tracked orders" 2 (Relation.cardinality result)

let test_missing_instance () =
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let gappy name = if name = "Hospital" then None else M.instances name in
  match Engine.execute M.catalog ~instances:gappy plan assignment with
  | Error (Engine.Missing_instance "Hospital") -> ()
  | _ -> Alcotest.fail "missing instance not reported"

let test_structural_rejection () =
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let bad =
    Planner.Assignment.set 4 (Planner.Assignment.executor M.s_h) assignment
  in
  match Engine.execute M.catalog ~instances:M.instances plan bad with
  | Error (Engine.Structure (Planner.Safety.Leaf_not_at_home _)) -> ()
  | _ -> Alcotest.fail "moved leaf executed"

let test_unassigned_rejection () =
  let plan = M.example_plan () in
  match
    Engine.execute M.catalog ~instances:M.instances plan
      Planner.Assignment.empty
  with
  | Error (Engine.Structure (Planner.Safety.Unassigned_node _)) -> ()
  | _ -> Alcotest.fail "empty assignment executed"

let test_third_party_requires_flag () =
  match
    Planner.Third_party.plan ~helpers:[ SC.s_b ] SC.catalog SC.policy
      (SC.pricing_plan ())
  with
  | Error _ -> Alcotest.fail "not rescued"
  | Ok { assignment; _ } ->
    (match
       Engine.execute SC.catalog ~instances:SC.instances (SC.pricing_plan ())
         assignment
     with
     | Error (Engine.Structure (Planner.Safety.Master_not_an_operand _)) -> ()
     | _ -> Alcotest.fail "proxy join executed without the flag")

let test_regular_join_both_directions () =
  (* Force the regular join at n2 with S_N master (as planned), then
     also check the mirrored assignment (S_I master) executes and
     agrees — it is unsafe policy-wise but structurally valid. *)
  let plan = M.example_plan () in
  let assignment = planned M.catalog M.policy plan in
  let mirrored =
    assignment
    |> Planner.Assignment.set 2 (Planner.Assignment.executor M.s_i)
    |> Planner.Assignment.set 1
         (Planner.Assignment.executor ~slave:M.s_i M.s_h)
  in
  let a = run M.catalog M.instances plan assignment in
  let b = run M.catalog M.instances plan mirrored in
  check Helpers.relation "same answer" a.Engine.result b.Engine.result

let test_local_join_moves_nothing () =
  let s = Server.make "Solo" in
  let r1 = Schema.make "L1" ~key:[ "A" ] [ "A"; "B" ] in
  let r2 = Schema.make "L2" ~key:[ "C" ] [ "C"; "D" ] in
  let catalog = Catalog.of_list [ (r1, s); (r2, s) ] in
  let cond =
    Joinpath.Cond.eq
      (Attribute.make ~relation:"L1" "A")
      (Attribute.make ~relation:"L2" "C")
  in
  let plan =
    Plan.of_algebra
      (Algebra.Join (cond, Algebra.Relation r1, Algebra.Relation r2))
  in
  let assignment =
    Planner.Assignment.empty
    |> Planner.Assignment.set 0 (Planner.Assignment.executor s)
    |> Planner.Assignment.set 1 (Planner.Assignment.executor s)
    |> Planner.Assignment.set 2 (Planner.Assignment.executor s)
  in
  let i x = Value.Int x in
  let instances name =
    if name = "L1" then Some (Relation.of_rows r1 [ [ i 1; i 2 ] ])
    else if name = "L2" then Some (Relation.of_rows r2 [ [ i 1; i 3 ] ])
    else None
  in
  match Engine.execute catalog ~instances plan assignment with
  | Ok { result; network; _ } ->
    check Alcotest.int "joined" 1 (Relation.cardinality result);
    check Alcotest.int "no messages" 0 (Network.message_count network)
  | Error e -> Alcotest.failf "%a" Engine.pp_error e

let suite =
  [
    c "medical query end to end" `Quick test_medical_result;
    c "semi-join reduces wire traffic" `Quick test_semijoin_wire_reduction;
    c "engine profiles match planner flows" `Quick
      test_message_profiles_match_planner;
    c "supply-chain tracking query" `Quick test_supply_chain_tracking;
    c "missing instance reported" `Quick test_missing_instance;
    c "structural violations rejected" `Quick test_structural_rejection;
    c "unassigned plan rejected" `Quick test_unassigned_rejection;
    c "proxy join needs the third-party flag" `Quick
      test_third_party_requires_flag;
    c "regular join in both directions" `Quick
      test_regular_join_both_directions;
    c "co-located join moves nothing" `Quick test_local_join_moves_nothing;
  ]
