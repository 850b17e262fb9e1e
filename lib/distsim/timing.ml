open Relalg

type link = {
  latency : float;
  bandwidth : float;
}

type model = {
  link : Server.t -> Server.t -> link;
  per_tuple : float;
}

let uniform ?(latency = 1e-3) ?(bandwidth = 10e6) ?(per_tuple = 1e-6) () =
  { link = (fun _ _ -> { latency; bandwidth }); per_tuple }

type schedule = {
  finish : (int * float) list;
  makespan : float;
}

let makespan ?(backoff = fun _ -> 0.0) model plan assignment
    (outcome : _ Engine.run) =
  let rows id =
    match List.assoc_opt id outcome.node_rows with
    | Some r -> float_of_int r
    | None ->
      invalid_arg
        (Printf.sprintf "Timing.makespan: no measurement for node n%d" id)
  in
  (* The cost of landing a message includes every failed attempt that
     preceded it on the same protocol step (same purpose, sender and
     receiver) plus the backoff waited between attempts: retries are
     not free, they are the whole point of measuring a faulty run. *)
  let transfer (m : Network.message) =
    let link = model.link m.sender m.receiver in
    let one (a : Network.message) =
      link.latency
      +. (float_of_int a.Network.bytes /. link.bandwidth)
    in
    let chain =
      List.filter
        (fun (a : Network.message) ->
          a.purpose = m.purpose
          && Server.equal a.sender m.sender
          && Server.equal a.receiver m.receiver
          && a.attempt <= m.attempt)
        (Network.attempts_at_join outcome.network (Network.join_of m.purpose))
    in
    List.fold_left
      (fun acc a ->
        acc +. one a
        +. (if a.Network.attempt < m.attempt then backoff a.Network.attempt
            else 0.0))
      0.0 chain
  in
  let exec id = Planner.Assignment.find assignment id in
  let finishes = ref [] in
  let rec go (n : Plan.node) =
    let t =
      match n.op with
      | Plan.Leaf _ -> 0.0
      | Plan.Project (_, c) | Plan.Select (_, c) ->
        go c +. (model.per_tuple *. rows c.Plan.id)
      | Plan.Join (_, l, r) ->
        let tl = go l and tr = go r in
        let local = model.per_tuple *. (rows l.Plan.id +. rows r.Plan.id) in
        let master = (exec n.id).Planner.Assignment.master in
        let l_server = (exec l.Plan.id).Planner.Assignment.master in
        (match Network.at_join outcome.network n.id with
         | [] ->
           (* Fully local join. *)
           Float.max tl tr +. local
         | [ ({ purpose = Network.Full_operand _; _ } as m) ] ->
           (* Regular join: the master waits for its own operand and
              the arrival of the other. *)
           let t_master, t_other =
             if Server.equal master l_server then (tl, tr) else (tr, tl)
           in
           Float.max t_master (t_other +. transfer m) +. local
         | [ ({ purpose = Network.Join_attributes _; _ } as fwd);
             ({ purpose = Network.Semijoin_result _; _ } as back) ] ->
           (* Five-step semi-join; two transfers on the critical path. *)
           let t_master, t_slave, master_rows, slave_rows =
             if Server.equal master l_server then
               (tl, tr, rows l.Plan.id, rows r.Plan.id)
             else (tr, tl, rows r.Plan.id, rows l.Plan.id)
           in
           let projected = t_master +. (model.per_tuple *. master_rows) in
           let at_slave = projected +. transfer fwd in
           let slave_join_done =
             Float.max t_slave at_slave
             +. (model.per_tuple
                 *. (slave_rows +. float_of_int fwd.rows))
           in
           let back_at_master = slave_join_done +. transfer back in
           Float.max back_at_master t_master
           +. (model.per_tuple
               *. (master_rows +. float_of_int back.rows))
         | [ ({ purpose = Network.Join_attributes _; _ } as k1);
             ({ purpose = Network.Join_attributes _; _ } as k2);
             ({ purpose = Network.Matched_keys _; _ } as matched);
             ({ purpose = Network.Semijoin_result _; _ } as reduced) ] ->
           (* Coordinator join: both key projections converge on the
              coordinator, the matched keys travel to the non-master
              operand, the reduced operand travels to the master. *)
           let t_of (m : Network.message) =
             if Server.equal m.sender l_server then tl else tr
           in
           let t_master, t_other, master_rows, other_rows =
             if Server.equal master l_server then
               (tl, tr, rows l.Plan.id, rows r.Plan.id)
             else (tr, tl, rows r.Plan.id, rows l.Plan.id)
           in
           let keys_at_t =
             Float.max (t_of k1 +. transfer k1) (t_of k2 +. transfer k2)
           in
           let match_done =
             keys_at_t
             +. (model.per_tuple
                 *. float_of_int (k1.rows + k2.rows))
           in
           let matched_at_other = match_done +. transfer matched in
           let reduce_done =
             Float.max t_other matched_at_other
             +. (model.per_tuple
                 *. (other_rows +. float_of_int matched.rows))
           in
           let reduced_at_master = reduce_done +. transfer reduced in
           Float.max t_master reduced_at_master
           +. (model.per_tuple
               *. (master_rows +. float_of_int reduced.rows))
         | msgs
           when List.for_all
                  (fun (m : Network.message) ->
                    match m.purpose with
                    | Network.Proxy_operand _ -> true
                    | _ -> false)
                  msgs ->
           (* Third-party proxy: both operands arrive, then a local
              join at the proxy. *)
           let arrival (m : Network.message) =
             let sent =
               if Server.equal m.sender l_server then tl else tr
             in
             sent +. transfer m
           in
           List.fold_left
             (fun acc m -> Float.max acc (arrival m))
             0.0 msgs
           +. local
         | _ ->
           invalid_arg
             (Printf.sprintf
                "Timing.makespan: unrecognised message pattern at n%d" n.id))
    in
    finishes := (n.id, t) :: !finishes;
    t
  in
  let makespan = go (Plan.root plan) in
  {
    finish = List.sort (fun (a, _) (b, _) -> Int.compare a b) !finishes;
    makespan;
  }

let pp_schedule ppf s =
  let pp_entry ppf (id, t) = Fmt.pf ppf "n%d: %.6f s" id t in
  Fmt.pf ppf "@[<v>%a@,makespan: %.6f s@]"
    Fmt.(list ~sep:(any "@,") pp_entry)
    s.finish s.makespan
