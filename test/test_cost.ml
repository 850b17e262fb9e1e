open Relalg
open Planner
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-6)

let model = Cost.uniform ~card:100.0

let test_node_rows () =
  let plan = M.example_plan () in
  let node id = Option.get (Plan.node plan id) in
  checkf "leaf" 100.0 (Cost.node_rows model (node 4));
  checkf "projection keeps rows" 100.0 (Cost.node_rows model (node 3));
  (* join selectivity 1.0: max of operands *)
  checkf "join" 100.0 (Cost.node_rows model (node 2));
  checkf "root" 100.0 (Cost.node_rows model (node 0))

let test_selection_shrinks () =
  let schema = Schema.make "T" ~key:[ "X" ] [ "X"; "Y" ] in
  let x = Attribute.make ~relation:"T" "X" in
  let plan =
    Plan.of_algebra
      (Algebra.Select
         (Predicate.Cmp (x, Predicate.Le, Const (Value.Int 1)),
          Algebra.Relation schema))
  in
  checkf "half survive" 50.0 (Cost.node_rows model (Plan.root plan))

(* Regression (NULL semantics): the estimate is a fraction of the
   operand — it must bound the *actual* selected cardinality of both
   executors under the two-valued NULL contract, where a selection and
   its negation no longer cover NULL rows. Before the fix, [Not]
   promoted unknown to true, so σ_¬p could exceed what a
   fraction-of-rows model admits for complementary predicates. *)
let test_estimate_bounds_null_selection () =
  let schema = Schema.make "T" ~key:[ "X" ] [ "X"; "Y" ] in
  let x = Attribute.make ~relation:"T" "X" in
  let y = Attribute.make ~relation:"T" "Y" in
  let r =
    Relation.of_rows schema
      [
        [ Int 0; Null ];
        [ Int 1; Null ];
        [ Int 2; Null ];
        [ Int 3; Int 1 ];
      ]
  in
  let p = Predicate.Cmp (y, Predicate.Le, Const (Value.Int 5)) in
  List.iter
    (fun pred ->
      let naive = Oracle.Reference.select pred r in
      check Helpers.relation
        (Fmt.str "executors agree on %a" Predicate.pp pred)
        naive
        (Batch.to_relation
           (Batch.select pred (Batch.of_relation (Batch.Dict.create ()) r)));
      let rows = float_of_int (Relation.cardinality r) in
      let plan =
        Plan.of_algebra (Algebra.Select (pred, Algebra.Relation schema))
      in
      let est = Cost.node_rows (Cost.uniform ~card:rows) (Plan.root plan) in
      check Alcotest.bool "estimate within [0, rows]" true
        (est >= 0.0 && est <= rows))
    [ p; Predicate.Not p; Predicate.Cmp (x, Predicate.Eq, Const Value.Null) ];
  (* The two selections together cover only the NULL-free rows. *)
  check Alcotest.int "σ_p + σ_¬p misses the NULL rows" 1
    (Relation.cardinality (Relation.select p r)
    + Relation.cardinality (Relation.select (Predicate.Not p) r))

let medical_assignment () =
  match Safe_planner.plan M.catalog M.policy (M.example_plan ()) with
  | Ok r -> r.assignment
  | Error f -> Alcotest.failf "%a" Safe_planner.pp_failure f

let test_flow_bytes () =
  let plan = M.example_plan () in
  let flows =
    Helpers.check_ok Safety.pp_error
      (Safety.flows M.catalog plan (medical_assignment ()))
  in
  match flows with
  | [ reg; fwd; back ] ->
    (* Regular join: 100 rows x 2 attrs x 8 bytes. *)
    checkf "full operand" 1600.0 (Cost.flow_bytes model plan reg);
    (* Forward semi-join leg: 100 rows x 1 attr x 8. *)
    checkf "join attributes" 800.0 (Cost.flow_bytes model plan fwd);
    (* Back leg: join cardinality (100) x 5 attrs x 8. *)
    checkf "semi-join answer" 4000.0 (Cost.flow_bytes model plan back)
  | _ -> Alcotest.fail "expected three flows"

let test_assignment_cost_total () =
  let plan = M.example_plan () in
  checkf "sum of flows" 6400.0
    (Cost.assignment_cost model M.catalog plan (medical_assignment ()))

let test_semijoin_beats_regular_when_selective () =
  (* With a selective join the answer (sel * |L| * |R|) shrinks below
     the full operand while the full-operand transfer does not: the
     semi-join execution of n1 must cost less than the all-regular
     alternative. sel = 1e-3 over 10 x 1000 operands gives a 10-row
     join against a 1000-row shipped operand. *)
  let selective =
    {
      model with
      join_selectivity = 0.001;
      card = (function "Hospital" -> 10.0 | _ -> 1000.0);
    }
  in
  let plan = M.example_plan () in
  let semi = medical_assignment () in
  (* All-regular variant of the same structure, built by hand: n1 as a
     regular join at S_H (no authorization admits it — the medical
     example is regular-only infeasible — but the cost model only looks
     at the structure). *)
  let regular = Assignment.set 1 (Assignment.executor M.s_h) semi in
  let cost a = Cost.assignment_cost selective M.catalog plan a in
  check Alcotest.bool
    (Fmt.str "semi %.0f < regular %.0f" (cost semi) (cost regular))
    true
    (cost semi < cost regular)

let test_structural_error_is_infinite () =
  let plan = M.example_plan () in
  checkf "unusable assignment" infinity
    (Cost.assignment_cost model M.catalog plan Assignment.empty)

let test_checked_reports_reason () =
  let plan = M.example_plan () in
  (match Cost.assignment_cost_checked model M.catalog plan Assignment.empty with
  | Ok c -> Alcotest.failf "expected a structural error, got cost %f" c
  | Error _ -> ());
  match
    Cost.assignment_cost_checked model M.catalog plan (medical_assignment ())
  with
  | Ok c -> checkf "agrees with assignment_cost" 6400.0 c
  | Error e -> Alcotest.failf "unexpected error: %a" Safety.pp_error e

let test_join_estimate_is_product () =
  (* Regression for the old [sel *. max l r] estimate: with unequal
     operands 10 x 1000 and sel 0.01 the join is 100 rows (the old
     formula said 10 — off by the smaller operand's factor). *)
  let m =
    {
      model with
      join_selectivity = 0.01;
      card = (function "Hospital" -> 10.0 | _ -> 1000.0);
    }
  in
  let plan = M.example_plan () in
  (* n1 joins the n2 result (Insurance x Nat_registry, 0.01 * 1000 *
     1000 = 10000 rows) with the Hospital projection (10 rows). *)
  let node id = Option.get (Plan.node plan id) in
  checkf "inner join" 10_000.0 (Cost.node_rows m (node 2));
  checkf "outer join" 1000.0 (Cost.node_rows m (node 1));
  (* The estimate is clamped to the cross product. *)
  let loose = { m with join_selectivity = 2.0 } in
  checkf "clamped to cross product" 1_000_000.0
    (Cost.node_rows loose (node 2))

let test_selectivity_flips_ranking () =
  (* The corrected estimate changes which plan wins: shipping the
     n2 join result (sel * |Insurance| * |Nat_registry| rows) versus
     shipping the Hospital operand. Under the old max-based estimate
     the join result never outgrew its larger operand, so the
     semi-join route always looked at least as cheap; under the
     product estimate a weakly selective join makes the all-regular
     route cheaper — the ranking genuinely flips with sel. *)
  let mk sel =
    {
      model with
      join_selectivity = sel;
      card = (function "Hospital" -> 10.0 | _ -> 1000.0);
    }
  in
  let plan = M.example_plan () in
  let semi = medical_assignment () in
  let regular = Assignment.set 1 (Assignment.executor M.s_h) semi in
  let cost m a = Cost.assignment_cost m M.catalog plan a in
  check Alcotest.bool "selective: semi wins" true
    (cost (mk 0.001) semi < cost (mk 0.001) regular);
  check Alcotest.bool "weakly selective: regular wins" true
    (cost (mk 0.1) regular < cost (mk 0.1) semi)

let suite =
  [
    c "node_rows" `Quick test_node_rows;
    c "selection selectivity" `Quick test_selection_shrinks;
    c "estimate bounds NULL selections in both executors" `Quick
      test_estimate_bounds_null_selection;
    c "flow bytes per payload kind" `Quick test_flow_bytes;
    c "assignment cost totals the flows" `Quick test_assignment_cost_total;
    c "semi-join wins under selective joins" `Quick
      test_semijoin_beats_regular_when_selective;
    c "structural errors cost infinity" `Quick test_structural_error_is_infinite;
    c "checked variant reports the reason" `Quick test_checked_reports_reason;
    c "join estimate is the clamped product" `Quick
      test_join_estimate_is_product;
    c "selectivity flips the plan ranking" `Quick
      test_selectivity_flips_ranking;
  ]
