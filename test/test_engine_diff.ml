(* The production engine (columnar batches end to end) against the
   oracle: the same engine body instantiated over the sorted-set
   Relation operators. On random federations from the workload
   generator — exact and Bloom semi-joins, coordinator and proxy
   rescues, and fault-injected runs through the recovery supervisor —
   both must agree on the answer, the steps and every field of every
   message. *)

open Relalg
open Workload

let c = Alcotest.test_case
let check = Alcotest.check

let same_log what a b =
  check Alcotest.(option string) (what ^ ": message log") None
    (Oracle.log_mismatch (Distsim.Network.messages a)
       (Distsim.Network.messages b))

let agree what (o : Distsim.Engine.outcome) (r : Distsim.Engine.outcome) =
  check Helpers.relation (what ^ ": result") r.result o.result;
  check Helpers.server (what ^ ": location") r.location o.location;
  check Alcotest.int (what ^ ": steps") r.steps o.steps;
  check Alcotest.(list (pair int int)) (what ^ ": node rows") r.node_rows
    o.node_rows;
  same_log what o.network r.network

(* Runs both engines; they must succeed or fail alike. *)
let both ?third_party ?bloom what catalog ~instances plan assignment =
  let pp = Fmt.result ~ok:(Fmt.any "ok") ~error:Distsim.Engine.pp_error in
  match
    ( Distsim.Engine.execute ?third_party ?bloom catalog ~instances plan
        assignment,
      Oracle.Engine.execute ?third_party ?bloom catalog ~instances plan
        assignment )
  with
  | Ok o, Ok r -> agree what o r
  | o, r ->
    check Alcotest.string (what ^ ": outcome") (Fmt.str "%a" pp r)
      (Fmt.str "%a" pp o)

let system seed =
  let rng = Rng.make ~seed in
  let topology =
    match seed mod 3 with
    | 0 -> System_gen.Chain
    | 1 -> System_gen.Star
    | _ -> System_gen.Random { extra_edges = 2 }
  in
  let relations = 4 + (seed mod 3) in
  let sys =
    System_gen.generate rng ~relations ~servers:relations ~extra:2 ~topology
  in
  let density = [| 0.4; 0.6; 0.9 |].(seed mod 3) in
  let policy = Authz_gen.generate rng ~density sys in
  (rng, sys, policy)

let test_exact_and_bloom () =
  let ran = ref 0 in
  for seed = 1 to 120 do
    let rng, sys, policy = system (900 + seed) in
    match Query_gen.generate_plan rng ~joins:(2 + (seed mod 3)) sys with
    | None -> ()
    | Some plan -> (
      match Planner.Safe_planner.plan sys.catalog policy plan with
      | Error _ -> ()
      | Ok { assignment; _ } ->
        incr ran;
        let instances = Data_gen.instances rng ~rows:15 sys in
        let what = Printf.sprintf "seed %d" seed in
        both what sys.catalog ~instances plan assignment;
        both ~bloom:[| 2; 4; 8; 16 |].(seed mod 4) (what ^ " bloom")
          sys.catalog ~instances plan assignment)
  done;
  check Alcotest.bool "cases exercised" true (!ran >= 25)

(* Helpers for blocked queries: one granted every connected view in
   full (it can act as a proxy), one granted only the bare join columns
   of each edge (it can only coordinate). *)
let helper_grants sys name views =
  let helper = Server.make name in
  let policy =
    List.fold_left
      (fun p (attrs, path) ->
        match Authz.Authorization.make ~attrs ~path helper with
        | Ok a -> Authz.Policy.add a p
        | Error _ -> p)
      Authz.Policy.empty (views sys)
  in
  (helper, policy)

let full_views sys =
  List.map
    (fun (rels, conds) ->
      ( List.fold_left
          (fun acc rel ->
            match Catalog.relation sys.System_gen.catalog rel with
            | Ok s -> Attribute.Set.union acc (Schema.attribute_set s)
            | Error _ -> acc)
          Attribute.Set.empty rels,
        Joinpath.of_list conds ))
    (Authz_gen.connected_subtrees sys ~max_edges:4)

let join_columns sys =
  List.concat_map
    (fun (_, _, cond) ->
      List.map
        (fun a -> (Attribute.Set.singleton a, Joinpath.of_list []))
        (Joinpath.Cond.left cond @ Joinpath.Cond.right cond))
    sys.System_gen.edges

let test_rescues () =
  let proxies = ref 0 and coordinators = ref 0 in
  for seed = 1 to 120 do
    let rng, sys, policy = system (2000 + seed) in
    match Query_gen.generate_plan rng ~joins:(2 + (seed mod 2)) sys with
    | None -> ()
    | Some plan ->
      if not (Planner.Safe_planner.feasible sys.catalog policy plan) then
        List.iter
          (fun (name, views) ->
            let helper, grants = helper_grants sys name views in
            let policy = Authz.Policy.union policy grants in
            match
              Planner.Third_party.plan ~helpers:[ helper ] sys.catalog policy
                plan
            with
            | Error _ -> ()
            | Ok { assignment; rescues } ->
              List.iter
                (fun (r : Planner.Third_party.rescue) ->
                  match r.kind with
                  | Planner.Third_party.Proxy -> incr proxies
                  | Planner.Third_party.Coordinator -> incr coordinators)
                rescues;
              let instances = Data_gen.instances rng ~rows:12 sys in
              let what = Printf.sprintf "seed %d via %s" seed name in
              both ~third_party:true what sys.catalog ~instances plan
                assignment;
              both ~third_party:true ~bloom:4 (what ^ " bloom") sys.catalog
                ~instances plan assignment)
          [ ("Proxy", full_views); ("Matcher", join_columns) ]
  done;
  (* The research scenario's outcomes query is the paper-shaped
     coordinator case. *)
  let module R = Scenario.Research in
  let plan = R.outcomes_plan () in
  (match
     Planner.Third_party.plan ~helpers:[ R.s_t ] R.catalog R.policy plan
   with
   | Ok { assignment; _ } ->
     incr coordinators;
     both ~third_party:true "research outcomes" R.catalog
       ~instances:R.instances plan assignment
   | Error _ -> Alcotest.fail "outcomes query not rescued");
  check Alcotest.bool "proxy joins exercised" true (!proxies >= 1);
  check Alcotest.bool "coordinator joins exercised" true (!coordinators >= 1)

(* Fault-injected runs through both supervisors: the same seeded fault
   plan must produce the same outcome, the same cumulative log and —
   on a dead end — the same partial sub-results. *)
let test_faults () =
  let recovered = ref 0 and degraded = ref 0 in
  for seed = 1 to 60 do
    let rng, sys, policy = system (5000 + seed) in
    let sys =
      if seed mod 2 = 0 then sys
      else
        System_gen.generate ~replication:0.6 rng ~relations:5 ~servers:5
          ~extra:2 ~topology:System_gen.Chain
    in
    let policy =
      if seed mod 2 = 0 then policy
      else Authz_gen.generate rng ~density:0.7 sys
    in
    match Query_gen.generate_plan rng ~joins:2 sys with
    | None -> ()
    | Some plan ->
      let instances = Data_gen.instances rng ~rows:10 sys in
      let fault =
        Distsim.Fault.random_plan rng ~servers:(System_gen.servers sys)
      in
      let what = Printf.sprintf "fault seed %d" seed in
      (* Every third case retransmits Bloom filters too. *)
      let bloom = if seed mod 3 = 0 then Some 4 else None in
      (match
         ( Distsim.Recover.execute ?bloom sys.catalog policy ~instances ~fault
             plan,
           Oracle.Recover.execute ?bloom sys.catalog policy ~instances ~fault
             plan )
       with
       | Ok o, Ok r ->
         incr recovered;
         check Helpers.relation (what ^ ": result") r.result o.result;
         check Alcotest.int (what ^ ": steps") r.steps o.steps;
         check Alcotest.int (what ^ ": attempts") r.attempts o.attempts;
         same_log what o.log r.log;
         agree (what ^ " final attempt") o.outcome r.outcome
       | Error o, Error r ->
         incr degraded;
         check Alcotest.string (what ^ ": reason")
           (Fmt.str "%a" Distsim.Recover.pp_reason r.reason)
           (Fmt.str "%a" Distsim.Recover.pp_reason o.reason);
         check
           Alcotest.(list (pair int Helpers.relation))
           (what ^ ": partial") r.partial o.partial;
         same_log what o.log r.log
       | _ -> Alcotest.failf "%s: one supervisor recovered, one did not" what)
  done;
  check Alcotest.bool "recoveries exercised" true (!recovered >= 10);
  check Alcotest.bool "dead ends exercised" true (!degraded >= 1)

let suite =
  [
    c "exact and Bloom runs agree with the oracle" `Quick test_exact_and_bloom;
    c "coordinator and proxy runs agree with the oracle" `Quick test_rescues;
    c "fault-injected recoveries agree with the oracle" `Quick test_faults;
  ]
