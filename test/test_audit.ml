open Relalg
open Distsim
module M = Scenario.Medical

let c = Alcotest.test_case
let check = Alcotest.check

let safe_network () =
  let plan = M.example_plan () in
  let assignment =
    match Planner.Safe_planner.plan M.catalog M.policy plan with
    | Ok r -> r.Planner.Safe_planner.assignment
    | Error f -> Alcotest.failf "%a" Planner.Safe_planner.pp_failure f
  in
  match Engine.execute M.catalog ~instances:M.instances plan assignment with
  | Ok { network; _ } -> network
  | Error e -> Alcotest.failf "%a" Engine.pp_error e

let test_clean_run_cites_rules () =
  match Audit.run M.policy (safe_network ()) with
  | Error _ -> Alcotest.fail "safe run flagged"
  | Ok entries ->
    check Alcotest.int "three entries" 3 (List.length entries);
    List.iter
      (fun (e : Audit.entry) ->
        match e.admitted_by with
        | Some rule ->
          (* The cited rule is granted to the message's receiver. *)
          check Helpers.server "rule matches receiver"
            e.message.Network.receiver rule.Authz.Authorization.server
        | None -> Alcotest.fail "clean entry without a rule")
      entries

let test_unauthorized_flow_flagged () =
  let n = Network.create () in
  let data = Option.get (M.instances "Hospital") in
  let (_ : Relation.t) =
    Helpers.send n ~sender:M.s_h ~receiver:M.s_i
      ~profile:(Authz.Profile.of_base M.hospital)
      ~purpose:(Network.Full_operand { join = 0 })
      ~note:"leak" data
  in
  match Audit.run M.policy n with
  | Error [ v ] ->
    check Alcotest.bool "unauthorized" true (v.Audit.reason = Audit.Unauthorized)
  | _ -> Alcotest.fail "leak not flagged"

let test_header_mismatch_flagged () =
  (* A message claiming a smaller profile than the data it carries. *)
  let n = Network.create () in
  let data = Option.get (M.instances "Insurance") in
  let lying_profile =
    Authz.Profile.make
      ~pi:(Attribute.Set.singleton (M.attr "Holder"))
      ~join:Joinpath.empty ~sigma:Attribute.Set.empty
  in
  let (_ : Relation.t) =
    Helpers.send n ~sender:M.s_i ~receiver:M.s_n ~profile:lying_profile
      ~purpose:(Network.Full_operand { join = 0 })
      ~note:"underdeclared" data
  in
  match Audit.run M.policy n with
  | Error [ { Audit.reason = Audit.Header_mismatch { header; claimed }; _ } ] ->
    check Alcotest.int "header wider" 2 (Attribute.Set.cardinal header);
    check Alcotest.int "claim narrower" 1 (Attribute.Set.cardinal claimed)
  | _ -> Alcotest.fail "mismatch not flagged"

let test_is_clean () =
  check Alcotest.bool "clean" true (Audit.is_clean M.policy (safe_network ()));
  check Alcotest.bool "empty network clean" true
    (Audit.is_clean M.policy (Network.create ()))

let test_mixed_report_collects_all_violations () =
  let n = Network.create () in
  let insurance = Option.get (M.instances "Insurance") in
  let hospital = Option.get (M.instances "Hospital") in
  let send_ok () =
    ignore
      (Helpers.send n ~sender:M.s_i ~receiver:M.s_n
         ~profile:(Authz.Profile.of_base M.insurance)
         ~purpose:(Network.Full_operand { join = 0 })
         ~note:"fine" insurance)
  in
  let send_bad () =
    ignore
      (Helpers.send n ~sender:M.s_h ~receiver:M.s_i
         ~profile:(Authz.Profile.of_base M.hospital)
         ~purpose:(Network.Full_operand { join = 0 })
         ~note:"leak" hospital)
  in
  send_ok ();
  send_bad ();
  send_bad ();
  match Audit.run M.policy n with
  | Error vs -> check Alcotest.int "both leaks reported" 2 (List.length vs)
  | Ok _ -> Alcotest.fail "leaks unreported"

(* Fault injection: retransmitted and undelivered messages are judged
   exactly like first attempts — same profile, same admitting rule; a
   lost emission never escapes the audit. *)
let test_retransmission_chain_same_rule () =
  let n = Network.create () in
  let data = Option.get (M.instances "Insurance") in
  let profile = Authz.Profile.of_base M.insurance in
  let send attempt delivery =
    ignore
      (Helpers.send n ~attempt ~delivery ~sender:M.s_i ~receiver:M.s_n
         ~profile
         ~purpose:(Network.Full_operand { join = 0 })
         ~note:"retry chain" data)
  in
  send 1 Network.Dropped;
  send 2 Network.Corrupted;
  send 3 Network.Delivered;
  match Audit.run M.policy n with
  | Error _ -> Alcotest.fail "authorized retry chain flagged"
  | Ok entries ->
    check Alcotest.int "every attempt audited" 3 (List.length entries);
    let rules =
      List.map
        (fun (e : Audit.entry) ->
          match e.admitted_by with
          | Some rule -> Fmt.str "%a" Authz.Authorization.pp rule
          | None -> Alcotest.fail "attempt admitted without a rule")
        entries
    in
    (match rules with
     | first :: rest ->
       List.iter
         (fun r -> check Alcotest.string "same admitting rule" first r)
         rest
     | [] -> assert false)

let test_dropped_leak_still_flagged () =
  (* A drop is not an excuse: the emission happened, so an unauthorized
     flow is a violation even though nothing arrived. *)
  let n = Network.create () in
  let data = Option.get (M.instances "Hospital") in
  let (_ : Relation.t) =
    Helpers.send n ~delivery:Network.Dropped ~sender:M.s_h ~receiver:M.s_i
      ~profile:(Authz.Profile.of_base M.hospital)
      ~purpose:(Network.Full_operand { join = 0 })
      ~note:"dropped leak" data
  in
  match Audit.run M.policy n with
  | Error [ v ] ->
    check Alcotest.bool "unauthorized" true
      (v.Audit.reason = Audit.Unauthorized)
  | _ -> Alcotest.fail "dropped leak not flagged"

let test_corrupted_retransmission_header_mismatch () =
  (* A corrupted retransmission whose declared profile no longer
     matches the bytes it carries is a header mismatch, attempt number
     notwithstanding. *)
  let n = Network.create () in
  let data = Option.get (M.instances "Insurance") in
  let lying =
    Authz.Profile.make
      ~pi:(Attribute.Set.singleton (M.attr "Holder"))
      ~join:Joinpath.empty ~sigma:Attribute.Set.empty
  in
  let (_ : Relation.t) =
    Helpers.send n ~attempt:2 ~delivery:Network.Corrupted ~sender:M.s_i
      ~receiver:M.s_n ~profile:lying
      ~purpose:(Network.Full_operand { join = 0 })
      ~note:"corrupted retry" data
  in
  match Audit.run M.policy n with
  | Error [ { Audit.reason = Audit.Header_mismatch _; message; _ } ] ->
    check Alcotest.int "on the retransmission" 2 message.Network.attempt
  | _ -> Alcotest.fail "corrupted retransmission not flagged"

(* Satellite: the text renderer covers every [reason] variant, and a
   header mismatch spells out both attribute sets plus the diff in each
   direction. *)
let test_reason_rendering () =
  let data = Option.get (M.instances "Insurance") in
  (* carries {Holder, Plan} *)
  let violation reason =
    {
      Audit.message =
        {
          Network.seq = 0;
          sender = M.s_i;
          receiver = M.s_n;
          header = Relation.header data;
          rows = Relation.cardinality data;
          bytes = Relation.byte_size data;
          decoded = Lazy.from_val data;
          payload = Network.Rows;
          profile = Authz.Profile.of_base M.insurance;
          purpose = Network.Full_operand { join = 0 };
          note = "test";
          attempt = 1;
          delivery = Network.Delivered;
        };
      reason;
    }
  in
  let render reason = Fmt.str "%a" Audit.pp_violation (violation reason) in
  let has sub s = check Alcotest.bool sub true (Helpers.contains ~sub s) in
  let lacks sub s = check Alcotest.bool sub false (Helpers.contains ~sub s) in
  (* Unauthorized *)
  has "no authorization admits" (render Audit.Unauthorized);
  let header = Relation.attribute_set data in
  (* Under-declaration: transmitted ⊃ declared. *)
  let narrow =
    render
      (Audit.Header_mismatch
         { header; claimed = Attribute.Set.singleton (M.attr "Holder") })
  in
  has "transmitted attributes" narrow;
  has "declared profile" narrow;
  has "Plan" narrow;
  has "transmitted but not declared" narrow;
  lacks "declared but not transmitted" narrow;
  (* Over-declaration: declared ⊃ transmitted. *)
  let wide =
    render
      (Audit.Header_mismatch
         {
           header;
           claimed = Attribute.Set.add (M.attr "HealthAid") header;
         })
  in
  has "declared but not transmitted" wide;
  has "HealthAid" wide;
  lacks "transmitted but not declared" wide;
  (* Disjoint drift: both diff clauses at once. *)
  let both =
    render
      (Audit.Header_mismatch
         { header; claimed = Attribute.Set.singleton (M.attr "HealthAid") })
  in
  has "transmitted but not declared" both;
  has "declared but not transmitted" both

let suite =
  [
    c "clean run cites admitting rules" `Quick test_clean_run_cites_rules;
    c "unauthorized flow flagged" `Quick test_unauthorized_flow_flagged;
    c "under-declared profile flagged" `Quick test_header_mismatch_flagged;
    c "is_clean" `Quick test_is_clean;
    c "all violations collected" `Quick test_mixed_report_collects_all_violations;
    c "retransmission chain cites one rule" `Quick
      test_retransmission_chain_same_rule;
    c "dropped leak still flagged" `Quick test_dropped_leak_still_flagged;
    c "corrupted retransmission mismatch" `Quick
      test_corrupted_retransmission_header_mismatch;
    c "every reason variant renders" `Quick test_reason_rendering;
  ]
