open Relalg
open Authz

type reason =
  | Unauthorized
  | Header_mismatch of {
      header : Attribute.Set.t;
      claimed : Attribute.Set.t;
    }

type violation = {
  message : Network.message;
  reason : reason;
}

type entry = {
  message : Network.message;
  admitted_by : Authorization.t option;
}

let check_message policy (m : Network.message) =
  let header = Attribute.Set.of_list m.header in
  let claimed = m.profile.Profile.pi in
  if not (Attribute.Set.equal header claimed) then
    Error { message = m; reason = Header_mismatch { header; claimed } }
  else if Policy.can_view policy m.profile m.receiver then
    (* [admitted_by] is [None] for open policies: no positive rule
       exists, the flow is admitted because no denial matches. *)
    Ok { message = m; admitted_by = Policy.authorizing_rule policy m.profile m.receiver }
  else Error { message = m; reason = Unauthorized }

let run policy network =
  let entries, violations =
    List.fold_left
      (fun (es, vs) m ->
        match check_message policy m with
        | Ok e -> (e :: es, vs)
        | Error v -> (es, v :: vs))
      ([], [])
      (Network.messages network)
  in
  if violations = [] then Ok (List.rev entries) else Error (List.rev violations)

let is_clean policy network = Result.is_ok (run policy network)

let pp_reason ppf = function
  | Unauthorized -> Fmt.string ppf "no authorization admits this flow"
  | Header_mismatch { header; claimed } ->
    let undeclared = Attribute.Set.diff header claimed
    and missing = Attribute.Set.diff claimed header in
    Fmt.pf ppf "transmitted attributes %a differ from declared profile %a"
      Attribute.Set.pp header Attribute.Set.pp claimed;
    if not (Attribute.Set.is_empty undeclared) then
      Fmt.pf ppf "; transmitted but not declared: %a" Attribute.Set.pp
        undeclared;
    if not (Attribute.Set.is_empty missing) then
      Fmt.pf ppf "; declared but not transmitted: %a" Attribute.Set.pp
        missing

let pp_violation ppf (v : violation) =
  Fmt.pf ppf "VIOLATION %a: %a" Network.pp_message v.message pp_reason v.reason

let pp_entry ppf (e : entry) =
  match e.admitted_by with
  | Some rule ->
    Fmt.pf ppf "%a@,  admitted by %a" Network.pp_message e.message
      Authorization.pp rule
  | None -> Network.pp_message ppf e.message

(* Cumulative-knowledge cross-check: the runtime counterpart of the
   static inference pass. The message log is replayed into per-server
   knowledge bases with the engine's own profiles, so the static
   analysis (over Safety.flows) and this replay must agree whenever the
   plans execute as planned — that agreement is differentially
   tested. *)
let knowledge catalog network =
  List.fold_left
    (fun k (m : Network.message) ->
      let source =
        { Analysis.Knowledge.seq = m.seq; sender = m.sender; note = m.note }
      in
      Analysis.Knowledge.receive ~receiver:m.receiver ~source m.profile k)
    (Analysis.Knowledge.of_catalog catalog)
    (Network.messages network)

(* The audit path is incremental: deliveries stream into a saturation
   cursor one at a time, so each message pays only its own frontier —
   joins between profiles already known were attempted when they first
   met. Verdicts match a batch [Knowledge.lint] over {!knowledge}
   (differentially tested); only witness details may differ by
   exploration order. *)
let inference ?budget ~joins catalog policy network =
  let cursor =
    Analysis.Knowledge.cursor ?budget ~joins
      (Analysis.Knowledge.of_catalog catalog)
  in
  List.iter
    (fun (m : Network.message) ->
      let source =
        { Analysis.Knowledge.seq = m.seq; sender = m.sender; note = m.note }
      in
      Analysis.Knowledge.feed cursor ~receiver:m.receiver ~source m.profile)
    (Network.messages network);
  Analysis.Knowledge.cursor_lint policy cursor
