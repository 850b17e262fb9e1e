(* Shared test utilities: Alcotest testables for the library's types and
   shorthands used across the suites. *)

open Relalg

let value = Alcotest.testable Value.pp Value.equal

let attribute = Alcotest.testable Attribute.pp_qualified Attribute.equal

let attribute_set =
  Alcotest.testable Attribute.Set.pp Attribute.Set.equal

let server = Alcotest.testable Server.pp Server.equal
let schema = Alcotest.testable Schema.pp Schema.equal
let joinpath = Alcotest.testable Joinpath.pp Joinpath.equal

let join_cond =
  Alcotest.testable Joinpath.Cond.pp Joinpath.Cond.equal

let tuple = Alcotest.testable Tuple.pp Tuple.equal
let relation = Alcotest.testable Relation.pp Relation.equal
let profile = Alcotest.testable Authz.Profile.pp Authz.Profile.equal

let authorization =
  Alcotest.testable Authz.Authorization.pp Authz.Authorization.equal

let assignment =
  Alcotest.testable Planner.Assignment.pp Planner.Assignment.equal

let executor =
  Alcotest.testable Planner.Assignment.pp_executor (fun a b ->
      Server.equal a.Planner.Assignment.master b.Planner.Assignment.master
      && Option.equal Server.equal a.Planner.Assignment.slave
           b.Planner.Assignment.slave)

(* Shorthands. *)

let attrs = Attribute.Set.of_list
let names set = List.map Attribute.name (Attribute.Set.elements set)

(* Quick relation literal: [rel ~key:["K"] "R" ["K";"A"] rows] with
   string values. *)
let rel ?(key = []) name attr_names rows =
  let schema = Schema.make name ~key attr_names in
  Relation.of_rows schema
    (List.map (List.map (fun s -> Value.String s)) rows)

let check_ok pp = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %a" pp e

let qcheck = QCheck_alcotest.to_alcotest

(* [contains ~sub s] — naive substring search, for output assertions. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* Log a decoded relation to a network, priced from the relation;
   returns it so sends chain inside expressions. *)
let send net ?attempt ?delivery ?payload ~sender ~receiver ~profile ~purpose
    ~note data =
  Distsim.Network.record net ?attempt ?delivery ?payload ~sender ~receiver
    ~profile ~purpose ~note ~header:(Relation.header data)
    ~rows:(Relation.cardinality data) ~bytes:(Relation.byte_size data)
    (Lazy.from_val data);
  data
