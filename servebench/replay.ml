(* Outside-in layer replay for the traced run. After each served call,
   every layer on the served path is re-invoked through its public
   function on that request's own inputs, each call recorded as a span
   under the request's id. The replay keeps its own chase handle
   (updated by the same grants and revokes) and its own circuit
   breakers (fed with the same logs at the same request ticks), so it
   reproduces the federation's planning inputs without looking inside
   it. Replayed executions must reproduce the served response's
   messages, bytes and steps exactly, or the traced run aborts. *)

open Relalg
module F = Federation

exception Unfaithful of string

type t = {
  spans : Spans.t;
  catalog : Catalog.t;
  instances : string -> Relation.t option;
  mutable chase : Authz.Chase.closed;
  health : Distsim.Health.t;
  mutable clock : int;  (* the federation's request tick *)
}

(* What one replayed query did, for the per-layer counts. *)
type counts = {
  planned : bool;
  messages : int;
  bytes : int;
  tuples : int;
  retransmissions : int;
  delivered : int;
  steps : int;
  audit_entries : int;
  failovers : int;
  quarantined : int;
  exec_words : float;  (* minor words the replayed execution allocated *)
}

let no_counts ~planned ~quarantined =
  {
    planned;
    messages = 0;
    bytes = 0;
    tuples = 0;
    retransmissions = 0;
    delivered = 0;
    steps = 0;
    audit_entries = 0;
    failovers = 0;
    quarantined;
    exec_words = 0.;
  }

(* The replay's own closure, timed as [chase.close] (request -1). *)
let create spans (s : Workloads.system) ~health_config =
  let chase, _ =
    Spans.record spans ~name:"chase.close" ~req:(-1) (fun () ->
        let h =
          Authz.Chase.closed_policy ~joins:s.sys.Workload.System_gen.join_graph
            s.policy
        in
        ignore (Authz.Chase.closure h);
        h)
  in
  {
    spans;
    catalog = s.catalog;
    instances = s.instances;
    chase;
    health = Distsim.Health.create ~config:health_config ();
    clock = 0;
  }

let routes_through assignment server =
  List.exists
    (fun (_, (e : Planner.Assignment.executor)) ->
      Server.equal e.master server
      || Option.fold ~none:false ~some:(Server.equal server) e.slave
      || Option.fold ~none:false ~some:(Server.equal server) e.coordinator)
    (Planner.Assignment.bindings assignment)

let cached fed key =
  List.find_opt (fun (c : F.cached_plan) -> c.key = key) (F.cached_plans fed)

(* Called just before the served query: advance the request tick and
   predict what the federation will see — the quarantine at this tick,
   and whether its plan cache will answer (an entry exists and does
   not route through a quarantined server). *)
let before_query t fed ~key =
  t.clock <- t.clock + 1;
  let quarantine = Distsim.Health.quarantined t.health ~now:t.clock in
  let hit =
    match cached fed key with
    | Some c ->
      not (List.exists (routes_through c.F.assignment) quarantine)
    | None -> false
  in
  (quarantine, hit)

let expect what ~served ~replayed =
  if served <> replayed then
    raise
      (Unfaithful
         (Printf.sprintf "%s: served %d, replayed %d" what served replayed))

let network_counts (net : Distsim.Network.t) =
  ( Distsim.Network.message_count net,
    Distsim.Network.total_bytes net,
    Distsim.Network.total_tuples net,
    Distsim.Network.retransmissions net,
    List.length (Distsim.Network.delivered net) )

(* One layer call as a span under the request's served call. *)
let child t ~req ~root name f =
  fst (Spans.record t.spans ~name ~req ~parent:root.Spans.id f)

(* Replay the layers of one served query. [result] is what the
   federation returned; [quarantine] and [hit] come from
   [before_query]. *)
let query t fed ~req ~root ~sql ~quarantine ~hit ~fault result =
  let span name f = child t ~req ~root name f in
  let catalog = t.catalog and instances = t.instances in
  let serving = Authz.Chase.closure t.chase in
  let quarantined = List.length quarantine in
  match span "sql_parser.parse" (fun () -> Sql_parser.parse catalog sql) with
  | Error _ -> no_counts ~planned:false ~quarantined
  | Ok query -> (
    let key = span "query.canonical" (fun () -> Query.canonical query) in
    let fresh =
      if hit then None
      else
        let plan = span "query.to_plan" (fun () -> Query.to_plan query) in
        Some
          ( plan,
            span "planner.plan" (fun () ->
                Planner.Third_party.plan ~excluded:quarantine ~closed:t.chase
                  ~helpers:[] catalog serving plan) )
    in
    match (result, fresh) with
    | Error (F.Infeasible _), Some (plan, _) ->
      ignore
        (span "advisor.advise" (fun () ->
             Planner.Advisor.advise catalog serving plan));
      no_counts ~planned:true ~quarantined
    | Error (F.Infeasible _), None ->
      raise (Unfaithful "an infeasible answer came from the plan cache")
    | (Ok _ | Error (F.Degraded _)), _ -> (
      let entry =
        match cached fed key with
        | Some c -> c
        | None -> raise (Unfaithful "served plan is not in the plan cache")
      in
      (match fresh with
       | Some (_, Error _) ->
         raise (Unfaithful "replayed planner found no plan for a served query")
       | Some (plan, Ok { Planner.Third_party.assignment; rescues }) ->
         if not (Planner.Assignment.equal assignment entry.F.assignment) then
           raise (Unfaithful "replayed planner chose another assignment");
         (match
            span "certificate.emit" (fun () ->
                Analysis.Certificate.emit_plan ~third_party:(rescues <> [])
                  ~closed:t.chase catalog serving plan assignment)
          with
          | Error e -> raise (Unfaithful ("certificate emission: " ^ e))
          | Ok cert ->
            if
              span "certificate.check" (fun () ->
                  Analysis.Certificate.check_plan
                    ~joins:(Authz.Chase.joins t.chase) catalog
                    (Authz.Chase.policy t.chase) plan cert)
              <> []
            then raise (Unfaithful "replayed certificate does not check"));
         ignore
           (span "planner.trace" (fun () ->
                Planner.Safe_planner.plan ~helpers:[] ~closed:t.chase catalog
                  serving plan))
       | None -> ());
      (* Minor words the execution call itself allocated. *)
      let allocated f =
        let w0 = Gc.minor_words () in
        let v = f () in
        (v, Gc.minor_words () -. w0)
      in
      let network, steps, failovers, served_result, exec_words =
        match fault with
        | None -> (
          match
            allocated (fun () ->
                span "engine.execute" (fun () ->
                    Distsim.Engine.execute ~third_party:false catalog
                      ~instances entry.F.plan entry.F.assignment))
          with
          | Error e, _ ->
            raise
              (Unfaithful
                 (Fmt.str "replayed execution failed: %a"
                    Distsim.Engine.pp_error e))
          | Ok o, words ->
            span "health.observe" (fun () ->
                Distsim.Health.observe_log t.health ~now:t.clock o.network);
            (o.network, o.steps, 0, Some o.result, words))
        | Some fault ->
          let outcome, words =
            allocated (fun () ->
                span "recover.execute" (fun () ->
                    Distsim.Recover.execute ~helpers:[] ~closed:t.chase
                      ~excluded:quarantine
                      ~seed:(entry.F.assignment, entry.F.certificate, [])
                      catalog (Authz.Chase.policy t.chase) ~instances ~fault
                      entry.F.plan))
          in
          let log, excluded, steps, failovers, res =
            match outcome with
            | Ok r ->
              (r.log, r.excluded, r.steps, List.length r.failovers, Some r.result)
            | Error d -> (d.log, d.excluded, 0, List.length d.failovers, None)
          in
          span "health.observe" (fun () ->
              Distsim.Health.observe_log t.health ~now:t.clock log;
              List.iter
                (fun s ->
                  if not (List.exists (Server.equal s) quarantine) then
                    Distsim.Health.record_failure t.health ~now:t.clock s)
                excluded);
          (log, steps, failovers, res, words)
      in
      let messages, bytes, tuples, retransmissions, delivered =
        network_counts network
      in
      (match (result, served_result) with
       | Ok r, Some _ ->
         expect "messages" ~served:r.F.messages ~replayed:messages;
         expect "bytes" ~served:r.F.bytes ~replayed:bytes;
         expect "steps" ~served:r.F.steps ~replayed:steps
       | Ok _, None -> raise (Unfaithful "replay degraded a served query")
       | Error _, Some _ -> raise (Unfaithful "replay answered a failed query")
       | Error _, None -> ());
      let audit_entries =
        match span "audit.run" (fun () -> Distsim.Audit.run serving network) with
        | Ok entries -> List.length entries
        | Error _ -> 0
      in
      (match result with
       | Ok r ->
         ignore
           (span "exec.centralized" (fun () ->
                Distsim.Engine.centralized ~instances r.F.plan));
         let lookup schema =
           match instances (Schema.name schema) with
           | Some rel -> rel
           | None -> invalid_arg "servebench: no instance"
         in
         let batch =
           span "exec.batch_eval" (fun () ->
               Batch.eval ~lookup (Plan.to_algebra r.F.plan))
         in
         if not (Relation.equal batch r.F.result) then
           raise (Unfaithful "Batch.eval disagrees with the served answer")
       | Error _ -> ());
      {
        planned = fresh <> None;
        messages;
        bytes;
        tuples;
        retransmissions;
        delivered;
        steps;
        audit_entries;
        failovers;
        quarantined;
        exec_words;
      })
    | Error _, _ -> no_counts ~planned:(fresh <> None) ~quarantined)

(* Replay a grant or revoke on the replay's own chase handle. *)
let update t ~req ~root (u : Workloads.update) =
  let span name f = child t ~req ~root name f in
  t.chase <-
    (match u with
     | Revoke a ->
       span "chase.revoke" (fun () ->
           let h = Authz.Chase.revoke a t.chase in
           ignore (Authz.Chase.closure h);
           h)
     | Grant a ->
       span "chase.add" (fun () ->
           let h = Authz.Chase.add a t.chase in
           ignore (Authz.Chase.closure h);
           h))
