(* The fault injector: deterministic seeded faults, and the engine's
   behaviour under them — retransmission, typed link failure, and the
   invariant that every emission (delivered or not) is logged with its
   true profile and judged by the audit. *)

open Relalg
open Distsim
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

let medical_assignment plan =
  match Planner.Safe_planner.plan M.catalog M.policy plan with
  | Ok r -> r.Planner.Safe_planner.assignment
  | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f

let lossy ?(drop = 0.0) ?(corrupt = 0.0) ?max_retries ~seed () =
  Fault.make ?max_retries ~default_link:{ Fault.drop; corrupt } ~seed ()

(* ------------------------------------------------------------------ *)
(* The injector in isolation.                                          *)

let test_reliable_is_transparent () =
  let t = Fault.start Fault.reliable in
  check Alcotest.bool "up" true (Fault.status t M.s_i = Fault.Up);
  for attempt = 1 to 10 do
    check Alcotest.bool "always delivers" true
      (Fault.transmission t ~sender:M.s_i ~receiver:M.s_n ~attempt
       = Fault.Deliver)
  done;
  check Alcotest.int "steps advance" 10 (Fault.steps t);
  Alcotest.(check (float 0.0)) "no delay" 0.0 (Fault.total_delay t)

let test_extreme_links () =
  let t = Fault.start (lossy ~drop:1.0 ~seed:1 ()) in
  check Alcotest.bool "certain drop" true
    (Fault.transmission t ~sender:M.s_i ~receiver:M.s_n ~attempt:1
     = Fault.Drop);
  let t = Fault.start (lossy ~corrupt:1.0 ~seed:1 ()) in
  check Alcotest.bool "certain corruption" true
    (Fault.transmission t ~sender:M.s_i ~receiver:M.s_n ~attempt:1
     = Fault.Corrupt)

let test_backoff_schedule () =
  let plan = Fault.make ~backoff_base:0.5 ~backoff_factor:3.0 ~seed:7 () in
  Alcotest.(check (float 1e-12)) "first" 0.5 (Fault.backoff plan 1);
  Alcotest.(check (float 1e-12)) "second" 1.5 (Fault.backoff plan 2);
  Alcotest.(check (float 1e-12)) "third" 4.5 (Fault.backoff plan 3);
  (* wait accrues exactly the schedule and records it. *)
  let t = Fault.start plan in
  let w1 = Fault.wait t ~attempt:1 in
  let w2 = Fault.wait t ~attempt:2 in
  Alcotest.(check (float 1e-12)) "waited" 2.0 (w1 +. w2);
  Alcotest.(check (float 1e-12)) "accrued" 2.0 (Fault.total_delay t);
  match Fault.events t with
  | [ Fault.Waited { attempt = 1; _ }; Fault.Waited { attempt = 2; _ } ] -> ()
  | evs ->
    Alcotest.failf "unexpected schedule: %a"
      Fmt.(list ~sep:(any "; ") Fault.pp_event)
      evs

let test_crash_windows () =
  (* Transient window [0, 2): dead now, healed after two steps pass. *)
  let plan =
    Fault.make ~crashes:[ Fault.crash ~until:2 M.s_i ~at:0 ] ~seed:3 ()
  in
  let t = Fault.start plan in
  check Alcotest.bool "inside window" true
    (Fault.status t M.s_i = Fault.Transient);
  check Alcotest.bool "others unaffected" true
    (Fault.status t M.s_h = Fault.Up);
  (* Advance two steps with someone else's compute. *)
  ignore (Fault.compute t ~server:M.s_h ~node:0);
  ignore (Fault.compute t ~server:M.s_h ~node:0);
  check Alcotest.bool "healed" true (Fault.status t M.s_i = Fault.Up);
  (* Permanent crash never heals and shadows any transient window. *)
  let plan =
    Fault.make
      ~crashes:[ Fault.crash ~until:2 M.s_i ~at:0; Fault.crash M.s_i ~at:0 ]
      ~seed:3 ()
  in
  let t = Fault.start plan in
  check Alcotest.bool "permanent" true
    (Fault.status t M.s_i = Fault.Permanent);
  ignore (Fault.compute t ~server:M.s_h ~node:0);
  ignore (Fault.compute t ~server:M.s_h ~node:0);
  ignore (Fault.compute t ~server:M.s_h ~node:0);
  check Alcotest.bool "still permanent" true
    (Fault.status t M.s_i = Fault.Permanent)

let test_injector_determinism () =
  let plan = lossy ~drop:0.4 ~corrupt:0.2 ~seed:42 () in
  let roll () =
    let t = Fault.start plan in
    List.init 50 (fun i ->
        Fault.transmission t ~sender:M.s_i ~receiver:M.s_n ~attempt:(1 + i))
  in
  check Alcotest.bool "same plan, same verdicts" true (roll () = roll ());
  (* A different seed diverges somewhere over 50 rolls. *)
  let other =
    let t = Fault.start (lossy ~drop:0.4 ~corrupt:0.2 ~seed:43 ()) in
    List.init 50 (fun i ->
        Fault.transmission t ~sender:M.s_i ~receiver:M.s_n ~attempt:(1 + i))
  in
  check Alcotest.bool "seed matters" false (roll () = other)

let test_random_plan_is_pure () =
  let servers = [ M.s_i; M.s_h; M.s_n; M.s_d ] in
  let gen seed = Fault.random_plan (Workload.Rng.make ~seed) ~servers in
  check Alcotest.bool "pure in the rng" true (gen 9 = gen 9);
  check Alcotest.bool "varies across seeds" true
    (List.exists (fun s -> gen s <> gen 9) [ 10; 11; 12; 13 ])

(* ------------------------------------------------------------------ *)
(* The engine under the injector.                                      *)

let execute_with fault =
  let plan = M.example_plan () in
  let assignment = medical_assignment plan in
  ( plan,
    Engine.execute ~fault:(Fault.start fault) M.catalog ~instances:M.instances
      plan assignment )

(* The engine always runs under an injector, so a reliable run is held
   to the relation-backed oracle rather than to itself: same answer,
   same steps, the same messages one for one, none retransmitted. *)
let test_reliable_engine_run_unchanged () =
  let plan, faulty = execute_with Fault.reliable in
  let oracle =
    Oracle.Engine.execute M.catalog ~instances:M.instances plan
      (medical_assignment plan)
  in
  match (faulty, oracle) with
  | Ok f, Ok o ->
    check Helpers.relation "same answer" o.Engine.result f.Engine.result;
    check Alcotest.int "same steps" o.Engine.steps f.Engine.steps;
    check
      Alcotest.(option string)
      "same messages" None
      (Oracle.log_mismatch
         (Network.messages f.Engine.network)
         (Network.messages o.Engine.network));
    check Alcotest.int "no retransmissions" 0
      (Network.retransmissions f.Engine.network)
  | _ -> Alcotest.fail "reliable run failed"

let test_lossy_link_recovers_by_retransmission () =
  (* Deterministically find a seed whose run actually loses messages,
     then demand full recovery: correct answer, clean audit over the
     complete log, failed attempts present in it. *)
  let rec find seed =
    if seed > 50 then Alcotest.fail "no lossy seed in range"
    else
      let plan, r = execute_with (lossy ~drop:0.4 ~max_retries:8 ~seed ()) in
      match r with
      | Ok o when Network.retransmissions o.Engine.network > 0 -> (plan, o)
      | _ -> find (seed + 1)
  in
  let plan, o = find 1 in
  check Helpers.relation "answer survives loss"
    (Engine.centralized ~instances:M.instances plan)
    o.Engine.result;
  check Alcotest.bool "audit clean over failed attempts too" true
    (Audit.is_clean M.policy o.Engine.network);
  let failed =
    List.filter
      (fun (m : Network.message) -> m.delivery <> Network.Delivered)
      (Network.messages o.Engine.network)
  in
  check Alcotest.bool "failed attempts logged" true (failed <> []);
  List.iter
    (fun (m : Network.message) ->
      (* A retransmission chain repeats the same profile. *)
      let delivered =
        List.find
          (fun (d : Network.message) ->
            d.delivery = Network.Delivered
            && d.purpose = m.purpose
            && Server.equal d.sender m.sender)
          (Network.messages o.Engine.network)
      in
      check Alcotest.bool "same profile as the delivered copy" true
        (Authz.Profile.equal m.profile delivered.profile))
    failed

let test_dead_link_fails_typed () =
  let _, r = execute_with (lossy ~drop:1.0 ~max_retries:3 ~seed:5 ()) in
  match r with
  | Error (Engine.Transfer_failed { attempts; _ }) ->
    check Alcotest.int "first try + retries" 4 attempts
  | Ok _ -> Alcotest.fail "delivered over a dead link"
  | Error e -> Alcotest.failf "wrong error: %a" Engine.pp_error e

let test_corrupting_link_fails_typed_and_audited () =
  let _, r = execute_with (lossy ~corrupt:1.0 ~max_retries:2 ~seed:5 ()) in
  match r with
  | Error (Engine.Transfer_failed _) -> ()
  | Ok _ -> Alcotest.fail "corrupted data accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Engine.pp_error e

let test_permanent_crash_fails_typed () =
  let _, r =
    execute_with (Fault.make ~crashes:[ Fault.crash M.s_i ~at:0 ] ~seed:1 ())
  in
  match r with
  | Error (Engine.Server_down { server; permanent = true; _ }) ->
    check Helpers.server "the crashed server" M.s_i server
  | Ok _ -> Alcotest.fail "computed on a dead server"
  | Error e -> Alcotest.failf "wrong error: %a" Engine.pp_error e

let test_transient_crash_waits_through () =
  let _, r =
    execute_with
      (Fault.make
         ~crashes:[ Fault.crash ~until:3 M.s_i ~at:0 ]
         ~max_retries:8 ~seed:1 ())
  in
  match r with
  | Ok o ->
    check Helpers.relation "answer unharmed"
      (Engine.centralized ~instances:M.instances (M.example_plan ()))
      o.Engine.result
  | Error e -> Alcotest.failf "outage not absorbed: %a" Engine.pp_error e

let suite =
  [
    c "reliable plan is transparent" `Quick test_reliable_is_transparent;
    c "certain drop / certain corruption" `Quick test_extreme_links;
    c "backoff schedule" `Quick test_backoff_schedule;
    c "crash windows" `Quick test_crash_windows;
    c "injector determinism" `Quick test_injector_determinism;
    c "random plans are pure" `Quick test_random_plan_is_pure;
    c "engine: reliable run unchanged" `Quick
      test_reliable_engine_run_unchanged;
    c "engine: retransmission recovers loss" `Quick
      test_lossy_link_recovers_by_retransmission;
    c "engine: dead link fails typed" `Quick test_dead_link_fails_typed;
    c "engine: corruption fails typed" `Quick
      test_corrupting_link_fails_typed_and_audited;
    c "engine: permanent crash fails typed" `Quick
      test_permanent_crash_fails_typed;
    c "engine: transient crash absorbed" `Quick
      test_transient_crash_waits_through;
  ]
