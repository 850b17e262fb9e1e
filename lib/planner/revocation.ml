open Authz

(* Chase-aware revocation: feasibility of "policy minus rule" must be
   judged against the closure of the shrunk policy (a revoked rule
   also takes down every derivation it supported), so each candidate
   removal goes through [Chase.revoke], which invalidates the cached
   closure and re-closes lazily. The baseline closure is computed once
   on the shared handle. *)
let leave_one_out ~joins policy rule =
  Chase.revoke rule (Chase.closed_policy ~joins policy)

let load_bearing ?joins catalog policy plan =
  let feasible_without =
    match joins with
    | None ->
      fun rule -> Safe_planner.feasible catalog (Policy.remove rule policy) plan
    | Some joins ->
      fun rule ->
        Safe_planner.feasible ~closed:(leave_one_out ~joins policy rule)
          catalog policy plan
  in
  let feasible_now =
    match joins with
    | None -> Safe_planner.feasible catalog policy plan
    | Some joins ->
      Safe_planner.feasible ~closed:(Chase.closed_policy ~joins policy)
        catalog policy plan
  in
  if not feasible_now then []
  else
    List.filter
      (fun rule -> not (feasible_without rule))
      (Policy.authorizations policy)

type impact = {
  rule : Authorization.t;
  total : int;
  broken : int;
}

let impact ?joins catalog policy plans =
  let closed = Option.map (fun joins -> Chase.closed_policy ~joins policy) joins in
  let feasible_plans =
    List.filter
      (fun p -> Safe_planner.feasible ?closed catalog policy p)
      plans
  in
  let total = List.length feasible_plans in
  Policy.authorizations policy
  |> List.map (fun rule ->
         let feasible_without =
           match joins with
           | None ->
             let without = Policy.remove rule policy in
             fun p -> Safe_planner.feasible catalog without p
           | Some joins ->
             let closed = leave_one_out ~joins policy rule in
             fun p -> Safe_planner.feasible ~closed catalog policy p
         in
         let broken =
           List.length
             (List.filter (fun p -> not (feasible_without p)) feasible_plans)
         in
         { rule; total; broken })
  |> List.sort (fun a b ->
         match Int.compare b.broken a.broken with
         | 0 -> Authorization.compare a.rule b.rule
         | c -> c)

let pp_impact ppf i =
  Fmt.pf ppf "%a breaks %d/%d plans" Authorization.pp i.rule i.broken i.total
