(* The columnar batch executor against the relation-backed oracle: unit
   ops on fixtures that exercise NULLs, the Int/Float bridge and >2^53
   integers, Bloom one-sidedness, partition invariance of the parallel
   hash join, and a many-seed whole-expression differential. *)

open Relalg
module M = Scenario.Medical

let check = Alcotest.check
let c = Alcotest.test_case
let qc = Helpers.qcheck
let two_53 = 9_007_199_254_740_992

(* Fixture relations: BR(K, A, B) and BS(L, C), attribute-disjoint so
   they join; values span every corner the encoders must respect. *)
let br_schema = Schema.make "BR" ~key:[ "K" ] [ "K"; "A"; "B" ]
let bs_schema = Schema.make "BS" ~key:[ "L" ] [ "L"; "C" ]
let k = Attribute.make ~relation:"BR" "K"
let a = Attribute.make ~relation:"BR" "A"
let b = Attribute.make ~relation:"BR" "B"
let l = Attribute.make ~relation:"BS" "L"
let cond = Joinpath.Cond.eq a l

let br =
  Relation.of_rows br_schema
    [
      [ Int 0; Int 3; String "x" ];
      [ Int 1; Float 3.0; String "y" ];
      (* same join class as Int 3 *)
      [ Int 2; Null; String "z" ];
      [ Int 3; Int two_53; String "w" ];
      [ Int 4; Int (two_53 + 1); String "w" ];
      (* distinct from 2^53 exactly *)
      [ Int 5; Int 9; Null ];
    ]

let bs =
  Relation.of_rows bs_schema
    [
      [ Int 3; String "c3" ];
      [ Float 3.0; String "c3f" ];
      [ Null; String "cnull" ];
      [ Float 9007199254740992.0; String "cbig" ];
      (* = Int 2^53, not 2^53+1 *)
      [ Int 7; String "c7" ];
    ]

let batch_of r =
  let dict = Batch.Dict.create () in
  Batch.of_relation dict r

let test_roundtrip () =
  check Helpers.relation "br round-trips" br (Batch.to_relation (batch_of br));
  check Helpers.relation "bs round-trips" bs (Batch.to_relation (batch_of bs));
  let empty = Relation.of_rows br_schema [] in
  check Helpers.relation "empty round-trips" empty
    (Batch.to_relation (batch_of empty))

let test_dict_interning () =
  let d = Batch.Dict.create () in
  let c1 = Batch.Dict.intern d (Int 3) in
  let c2 = Batch.Dict.intern d (Float 3.0) in
  check Alcotest.int "Int 3 and Float 3. share a code" c1 c2;
  let big = Batch.Dict.intern d (Int (two_53 + 1)) in
  let bigf = Batch.Dict.intern d (Float 9007199254740992.0) in
  check Alcotest.bool "2^53 + 1 and float 2^53 stay distinct" true
    (big <> bigf);
  check Alcotest.bool "codes decode back" true
    (Value.equal (Batch.Dict.value d c1) (Int 3))

(* Every physical operator equals its oracle namesake on the fixtures —
   including the NULL-matching join semantics (conditions are attribute
   pairs, so NULL keys do meet) — and so do the wire figures the engine
   logs: byte size from codes, compaction, Bloom reduction. *)
let test_ops_match_reference () =
  let module R = Oracle.Reference in
  let dict = Batch.Dict.create () in
  let br_b = Batch.of_relation dict br and bs_b = Batch.of_relation dict bs in
  let check_op name expected got =
    check Helpers.relation name expected (Batch.to_relation got);
    check Alcotest.int (name ^ " bytes") (R.byte_size expected)
      (Batch.byte_size got);
    check Helpers.relation (name ^ " compacted") expected
      (Batch.to_relation (Batch.compact got))
  in
  let attrs = Attribute.Set.of_list [ k; a ] in
  check_op "project" (R.project attrs br) (Batch.project attrs br_b);
  let preds =
    [
      Predicate.Cmp (a, Predicate.Eq, Const (Int 3));
      Predicate.Cmp (a, Predicate.Le, Const (Float 3.5));
      Predicate.Cmp (a, Predicate.Gt, Const (Int two_53));
      Predicate.Not (Predicate.Cmp (b, Predicate.Eq, Const (String "w")));
      Predicate.And
        ( Predicate.Cmp (a, Predicate.Ge, Const (Int 0)),
          Predicate.Or
            ( Predicate.Cmp (b, Predicate.Eq, Const (String "z")),
              Predicate.Cmp (k, Predicate.Lt, Const (Int 4)) ) );
    ]
  in
  List.iter
    (fun p ->
      check_op
        (Fmt.str "select %a" Predicate.pp p)
        (R.select p br) (Batch.select p br_b))
    preds;
  check_op "equi_join" (R.equi_join cond br bs)
    (Batch.equi_join cond br_b bs_b);
  check_op "semi_join" (R.semi_join cond br bs)
    (Batch.semi_join cond br_b bs_b);
  let shared = R.equi_join cond br bs in
  (* natural join on the overlap of a previous result and an operand *)
  check_op "natural_join"
    (R.natural_join shared br)
    (Batch.natural_join (Batch.of_relation dict shared) br_b);
  let filter = R.bloom ~bits_per_key:4 [ l ] bs in
  check Alcotest.int "bloom filter bits" (Bloom.bits filter)
    (Bloom.bits (Batch.bloom ~bits_per_key:4 [ l ] bs_b));
  check_op "bloom_reduce"
    (R.bloom_reduce filter [ a ] br)
    (Batch.bloom_reduce filter [ a ] br_b)

let test_empty_projection_refused () =
  match Batch.project Attribute.Set.empty (batch_of br) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "batch accepted an empty projection"

let test_bloom_one_sided () =
  let keys =
    List.map (fun tu -> Tuple.values_of tu [ a ]) (Relation.tuples br)
  in
  let f = Bloom.of_keys ~bits_per_key:8 keys in
  List.iter
    (fun key ->
      check Alcotest.bool "no false negatives" true (Bloom.mem f key))
    keys;
  (* The Int/Float bridge and NULLs probe like they intern. *)
  check Alcotest.bool "Float 3. finds Int 3" true (Bloom.mem f [ Float 3.0 ]);
  check Alcotest.bool "NULL added is NULL found" true (Bloom.mem f [ Null ]);
  check Alcotest.bool "filter is smaller than the column" true
    (Bloom.byte_size f
    < Relation.byte_size (Relation.project (Attribute.Set.singleton a) br));
  match Bloom.of_keys ~bits_per_key:0 keys with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bits_per_key 0 accepted"

(* Random instances for the properties: NULLs on non-key columns, join
   values straddling 2^53 so dictionary interning must stay exact. *)
let gen_value =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun x -> Value.Int x) (int_bound 6));
        (1, return Value.Null);
        (1, map (fun x -> Value.Float (float_of_int x)) (int_bound 6));
        (1, oneofl [ Value.Int two_53; Value.Int (two_53 + 1) ]);
        (1, return (Value.Float 9007199254740992.0));
      ])

let gen_br =
  QCheck.Gen.(
    map
      (fun rows ->
        Relation.of_rows br_schema
          (List.mapi
             (fun i (x, y) -> [ Value.Int i; x; y ])
             rows))
      (list_size (0 -- 20) (pair gen_value gen_value)))

let gen_bs =
  QCheck.Gen.(
    map
      (fun rows ->
        Relation.of_rows bs_schema
          (List.map (fun (x, y) -> [ x; Value.Int y ]) rows))
      (list_size (0 -- 20) (pair gen_value (int_bound 1000))))

let arb_pair =
  QCheck.make
    ~print:(fun (r, s) ->
      Fmt.str "%a@.%a" Relation.pp r Relation.pp s)
    QCheck.Gen.(pair gen_br gen_bs)

(* One-round parallel correctness: the hash join's result must not
   depend on how rows are partitioned across domains. *)
let prop_partition_invariance =
  QCheck.Test.make ~name:"equi_join is partition-invariant" ~count:100
    arb_pair
    (fun (r, s) ->
      let dict = Batch.Dict.create () in
      let rb = Batch.of_relation dict r and sb = Batch.of_relation dict s in
      let joined p =
        Batch.to_relation (Batch.equi_join ~partitions:p cond rb sb)
      in
      let sequential = joined 1 in
      List.for_all (fun p -> Relation.equal sequential (joined p)) [ 2; 3; 7 ])

(* The ≥200-seed batch ≡ naive differential over whole expressions:
   the reference [Algebra.eval] against the batch-native evaluator, on
   plans mixing selection, projection and the join. *)
let prop_differential =
  QCheck.Test.make ~name:"batch ≡ naive on random expressions" ~count:250
    QCheck.(
      pair arb_pair
        (pair (int_bound 5) (oneofl Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ])))
    (fun ((r, s), (v, op)) ->
      let expr =
        Algebra.Project
          ( Attribute.Set.of_list [ k; a; l ],
            Algebra.Select
              ( Predicate.Cmp (a, op, Const (Value.Int v)),
                Algebra.Join
                  (cond, Algebra.Relation br_schema, Algebra.Relation bs_schema)
              ) )
      in
      let lookup schema =
        if Schema.name schema = "BR" then r else s
      in
      Relation.equal (Algebra.eval ~lookup expr) (Batch.eval ~lookup expr))

(* The production engine against the oracle engine, exact and under
   Bloom reduction: identical answers, message logs and audit verdicts,
   and the Bloom run ships strictly fewer bytes than the exact
   semi-join on the medical scenario (the wire saving the reducer
   exists for). *)
let test_engine_differential () =
  let plan = M.example_plan () in
  let assignment =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  in
  let ok = function
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Distsim.Engine.pp_error e
  in
  let run ?bloom () =
    ok
      (Distsim.Engine.execute ?bloom M.catalog ~instances:M.instances plan
         assignment)
  in
  let naive =
    ok
      (Oracle.Engine.execute M.catalog ~instances:M.instances plan assignment)
  in
  let batch = run () in
  let bloom = run ~bloom:8 () in
  let naive_bloom =
    ok
      (Oracle.Engine.execute ~bloom:8 M.catalog ~instances:M.instances plan
         assignment)
  in
  check Alcotest.(option string) "exact logs agree" None
    (Oracle.log_mismatch
       (Distsim.Network.messages batch.network)
       (Distsim.Network.messages naive.network));
  check Alcotest.(option string) "bloom logs agree" None
    (Oracle.log_mismatch
       (Distsim.Network.messages bloom.network)
       (Distsim.Network.messages naive_bloom.network));
  check Helpers.relation "batch answer matches" naive.Distsim.Engine.result
    batch.Distsim.Engine.result;
  check Helpers.relation "bloom answer matches" naive.Distsim.Engine.result
    bloom.Distsim.Engine.result;
  List.iter
    (fun (o : Distsim.Engine.outcome) ->
      check Alcotest.bool "audit clean" true
        (Distsim.Audit.is_clean M.policy o.network))
    [ naive; batch; bloom ];
  check Alcotest.bool "bloom ships strictly fewer bytes" true
    (Distsim.Network.total_bytes bloom.Distsim.Engine.network
    < Distsim.Network.total_bytes naive.Distsim.Engine.network)

let suite =
  [
    c "encode/decode round-trip" `Quick test_roundtrip;
    c "dictionary interns by value class" `Quick test_dict_interning;
    c "operators match the reference twin" `Quick test_ops_match_reference;
    c "empty projection refused" `Quick test_empty_projection_refused;
    c "bloom filters are one-sided" `Quick test_bloom_one_sided;
    qc prop_partition_invariance;
    qc prop_differential;
    c "engine differential incl. bloom wire saving" `Quick
      test_engine_differential;
  ]
