(* Composite (multi-pair) equi-join conditions through the whole stack:
   ⟨(A1,B1), (A2,B2)⟩ conditions in profiles, planning, the semi-join
   protocol and the script compiler. *)

open Relalg
open Planner

let c = Alcotest.test_case
let check = Alcotest.check

let sa = Server.make "SA"
let sb = Server.make "SB"

let orders =
  Schema.make "COrders" ~key:[ "Oid" ]
    [ "Oid"; "Ocust"; "Oregion"; "Ototal" ]

let rates =
  Schema.make "CRates" ~key:[ "Rcust"; "Rregion" ]
    [ "Rcust"; "Rregion"; "Discount" ]

let catalog = Catalog.of_list [ (orders, sa); (rates, sb) ]

let attr name =
  Helpers.check_ok Catalog.pp_error (Catalog.resolve_attribute catalog name)

(* Join on BOTH customer and region. *)
let cond =
  Joinpath.Cond.make
    ~left:[ attr "Ocust"; attr "Oregion" ]
    ~right:[ attr "Rcust"; attr "Rregion" ]

let policy =
  Authz.Policy.of_list
    [
      Authz.Authorization.make_exn ~attrs:(Schema.attribute_set orders)
        ~path:Joinpath.empty sa;
      Authz.Authorization.make_exn ~attrs:(Schema.attribute_set rates)
        ~path:Joinpath.empty sb;
      (* SB may see the pair of join columns (semi-join slave view). *)
      Authz.Authorization.make_exn
        ~attrs:(Attribute.Set.of_list [ attr "Ocust"; attr "Oregion" ])
        ~path:Joinpath.empty sb;
      (* SA may read back the discounts of its own customer/region
         pairs — the semi-join master view. *)
      Authz.Authorization.make_exn
        ~attrs:
          (Attribute.Set.of_list
             [
               attr "Ocust"; attr "Oregion"; attr "Rcust"; attr "Rregion";
               attr "Discount";
             ])
        ~path:(Joinpath.singleton cond) sa;
    ]

let sql =
  "SELECT Ototal, Discount FROM COrders JOIN CRates ON Ocust = Rcust AND \
   Oregion = Rregion"

let plan () = Query.to_plan (Sql_parser.parse_exn catalog sql)

let v s = Value.String s

let instances =
  let table =
    [
      ( "COrders",
        Relation.of_rows orders
          [
            [ v "o1"; v "acme"; v "east"; v "100" ];
            [ v "o2"; v "acme"; v "west"; v "200" ];
            [ v "o3"; v "brix"; v "east"; v "300" ];
          ] );
      ( "CRates",
        Relation.of_rows rates
          [
            [ v "acme"; v "east"; v "d10" ];
            [ v "brix"; v "west"; v "d20" ];
          ] );
    ]
  in
  fun name -> List.assoc_opt name table

let test_parser_builds_composite () =
  let q = Sql_parser.parse_exn catalog sql in
  match q.Query.joins with
  | [ (_, parsed) ] ->
    check Helpers.join_cond "both pairs in one condition" cond parsed
  | _ -> Alcotest.fail "expected a single two-pair join"

let test_planned_as_semi_join () =
  match Safe_planner.plan catalog policy (plan ()) with
  | Error f -> Alcotest.failf "%a" Safe_planner.pp_failure f
  | Ok { assignment; _ } ->
    let top = Assignment.find assignment 1 in
    check Helpers.server "SA masters" sa top.Assignment.master;
    check Alcotest.bool "SB is the slave" true (top.Assignment.slave = Some sb);
    (* The forward leg carries exactly the two join columns. *)
    let flows =
      Helpers.check_ok Safety.pp_error
        (Safety.flows catalog (plan ()) assignment)
    in
    (match flows with
     | [ fwd; _back ] ->
       check Helpers.attribute_set "two join columns"
         (Attribute.Set.of_list [ attr "Ocust"; attr "Oregion" ])
         fwd.Safety.profile.Authz.Profile.pi
     | _ -> Alcotest.fail "expected two flows")

let test_execution () =
  match Safe_planner.plan catalog policy (plan ()) with
  | Error f -> Alcotest.failf "%a" Safe_planner.pp_failure f
  | Ok { assignment; _ } ->
    (match Distsim.Engine.execute catalog ~instances (plan ()) assignment with
     | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
     | Ok { result; network; _ } ->
       (* Only (acme, east) matches on BOTH columns. *)
       check Alcotest.int "one match" 1 (Relation.cardinality result);
       check Helpers.relation "matches centralized"
         (Distsim.Engine.centralized ~instances (plan ()))
         result;
       check Alcotest.bool "audit clean" true
         (Distsim.Audit.is_clean policy network);
       (* The semi-join back leg ships only the matching rate row. *)
       let back =
         List.find
           (fun (m : Distsim.Network.message) ->
             match m.purpose with
             | Distsim.Network.Semijoin_result _ -> true
             | _ -> false)
           (Distsim.Network.messages network)
       in
       check Alcotest.int "one reduced row" 1
         (Relation.cardinality (Distsim.Network.data back)))

let test_single_column_match_would_differ () =
  (* Sanity of the fixture: joining on customer alone matches two rate
     rows — the composite condition is genuinely doing work. *)
  let loose = Joinpath.Cond.eq (attr "Ocust") (attr "Rcust") in
  let joined =
    Relation.equi_join loose
      (Option.get (instances "COrders"))
      (Option.get (instances "CRates"))
  in
  check Alcotest.int "three loose matches" 3 (Relation.cardinality joined)

let test_script () =
  match Safe_planner.plan catalog policy (plan ()) with
  | Error f -> Alcotest.failf "%a" Safe_planner.pp_failure f
  | Ok { assignment; _ } ->
    (match Script.of_assignment catalog (plan ()) assignment with
     | Error e -> Alcotest.failf "%a" Safety.pp_error e
     | Ok s ->
       let text = Fmt.str "%a" Script.pp s in
       check Alcotest.bool "both columns projected" true
         (Helpers.contains ~sub:"SELECT DISTINCT Ocust, Oregion" text);
       check Alcotest.bool "conjunctive ON" true
         (Helpers.contains ~sub:"Ocust = Rcust AND Oregion = Rregion" text))

let suite =
  [
    c "parser builds one composite condition" `Quick
      test_parser_builds_composite;
    c "planned as a semi-join on both columns" `Quick
      test_planned_as_semi_join;
    c "executes correctly" `Quick test_execution;
    c "fixture sanity: composite matters" `Quick
      test_single_column_match_would_differ;
    c "script shows the composite protocol" `Quick test_script;
  ]
