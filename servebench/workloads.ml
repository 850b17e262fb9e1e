(* The served-path workloads and the inputs they generate from a
   seed. A run is a sequence of rounds; each round serves a fixed-length
   operation stream on a fresh federation, so per-request figures do
   not drift with how many requests a run manages (the federation's
   audit log grows with every answer). *)

open Relalg
open Workload

type draw = Round_robin | Zipf of float

type faults = {
  crash_rate : float;  (** share of requests on which the victim crashes *)
  drop : float;
      (** per-attempt drop probability on the links into the victim;
          the other links are perfect *)
  retries : int;
}

type t = {
  name : string;
  relations : int;
  servers : int;
  replicate : bool;  (** every relation also at the next server *)
  rows : int;
  density : float;
  max_path : int;
  pool : int;  (** distinct queries, the same in every round *)
  joins : int;
  where_prob : int -> float;  (** WHERE probability of the i-th query *)
  draw : draw;
  cache_capacity : int;
  requests : int;  (** timed queries per round *)
  update_pairs : int;  (** revoke/re-grant pairs timed after the queries *)
  faults : faults option;
  health : Distsim.Health.config;  (** circuit-breaker settings *)
  min_rounds : int;  (** at least three, so that set-up time is a median *)
  query_tail : float;  (** the tail percentile reported *)
  update_tail : float;
}

let all =
  [
    {
      name = "rows-warm";
      relations = 8;
      servers = 8;
      replicate = false;
      rows = 5000;
      density = 1.0;
      max_path = 3;
      pool = 6;
      joins = 3;
      where_prob = (fun i -> if i mod 3 = 2 then 1.0 else 0.0);
      draw = Round_robin;
      cache_capacity = 256;
      requests = 12;
      update_pairs = 12;
      faults = None;
      health = Distsim.Health.default_config;
      min_rounds = 3;
      query_tail = 90.;
      update_tail = 90.;
    };
    {
      name = "plan-cold";
      relations = 18;
      servers = 18;
      replicate = false;
      rows = 20;
      density = 1.0;
      max_path = 3;
      pool = 200;
      joins = 4;
      where_prob = (fun _ -> 0.3);
      draw = Zipf 0.8;
      cache_capacity = 16;
      requests = 300;
      update_pairs = 3;
      faults = None;
      health = Distsim.Health.default_config;
      min_rounds = 3;
      query_tail = 90.;
      update_tail = 50.;
    };
    {
      name = "flaky-failover";
      relations = 12;
      servers = 4;
      replicate = true;
      rows = 200;
      density = 1.0;
      max_path = 3;
      pool = 10;
      joins = 4;
      where_prob = (fun _ -> 0.0);
      draw = Zipf 1.1;
      cache_capacity = 256;
      requests = 500;
      update_pairs = 34;
      (* Loss only on the links into the victim, since Health charges a
         dropped attempt to its receiver: at 0.2% on every link, one
         seed in ten tripped a healthy server's breaker on two dropped
         attempts while the victim was down, and with single
         replication its requests degraded. *)
      faults = Some { crash_rate = 0.10; drop = 0.01; retries = 4 };
      health =
        Distsim.Health.config ~failure_threshold:2 ~window:8 ~cooldown:40 ();
      min_rounds = 3;
      query_tail = 95.;
      update_tail = 90.;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Independent, reproducible RNG streams per (workload, seed, purpose). *)
let rng w ~seed purpose = Rng.make ~seed:(Hashtbl.hash (w.name, seed, purpose))

(* ------------------------------------------------------------------ *)
(* The federation's inputs, fixed for a whole run. *)

type system = {
  sys : System_gen.t;
  catalog : Catalog.t;
  policy : Authz.Policy.t;
  instances : string -> Relation.t option;
}

(* Replicate every relation at the next server round-robin, so whichever
   server dies, each relation keeps a live copy elsewhere. *)
let replicate_next sys =
  let servers = Array.of_list (System_gen.servers sys) in
  let index s =
    let i = ref 0 in
    Array.iteri (fun j x -> if Server.equal x s then i := j) servers;
    !i
  in
  List.fold_left
    (fun cat (schema : Schema.t) ->
      match Catalog.server_of cat schema.Schema.name with
      | Error _ -> cat
      | Ok primary -> (
        let at = servers.((index primary + 1) mod Array.length servers) in
        match Catalog.replicate cat schema.Schema.name ~at with
        | Ok cat -> cat
        | Error _ -> cat))
    sys.System_gen.catalog
    (Catalog.schemas sys.System_gen.catalog)

(* The schema, the policy and the query pool are fixed per workload; the
   seed draws the row instances, the order of the requests and the fault
   plans. A pool drawn from the seed put a different mix of 3-join
   queries (60 to 200 ms each on rows-warm) in every run, which alone
   moved the median latency by about a quarter from one seed to the next. *)
let system w ~seed =
  let sys =
    System_gen.generate (rng w ~seed:0 "system") ~relations:w.relations
      ~servers:w.servers ~extra:2 ~topology:System_gen.Chain
  in
  let policy =
    Authz_gen.generate (rng w ~seed:0 "policy") ~max_path:w.max_path
      ~attr_keep:1.0 ~density:w.density sys
  in
  let instances = Data_gen.instances (rng w ~seed "data") ~rows:w.rows sys in
  let catalog = if w.replicate then replicate_next sys else sys.catalog in
  { sys; catalog; policy; instances }

(* ------------------------------------------------------------------ *)
(* The traffic. *)

type update = Revoke of Authz.Authorization.t | Grant of Authz.Authorization.t

type op =
  | Query of { sql : string; fault : Distsim.Fault.plan option }
  | Update of update

let query_pool w s =
  let r = rng w ~seed:0 "pool" in
  let seen = Hashtbl.create 64 in
  let rec grow acc n attempts =
    if n = w.pool || attempts > 50 * w.pool then List.rev acc
    else
      match
        Query_gen.generate r ~where_prob:(w.where_prob n) ~joins:w.joins s.sys
      with
      | Some q when not (Hashtbl.mem seen (Query.canonical q)) ->
        Hashtbl.replace seen (Query.canonical q) ();
        grow ((Query.to_string q, q) :: acc) (n + 1) (attempts + 1)
      | Some _ | None -> grow acc n (attempts + 1)
  in
  grow [] 0 0

let fault_plan w s r ~victim ~k =
  match (w.faults, victim) with
  | None, _ | _, None -> None
  | Some f, Some victim ->
    let lossy = { Distsim.Fault.drop = f.drop; corrupt = 0.0 } in
    let v = Server.name victim in
    let links =
      List.concat_map
        (fun o ->
          let o = Server.name o in
          if o = v then [] else [ ((o, v), lossy) ])
        (System_gen.servers s.sys)
    in
    let crashes =
      if Rng.float r < f.crash_rate then [ Distsim.Fault.crash victim ~at:1 ]
      else []
    in
    Some (Distsim.Fault.make ~crashes ~links ~max_retries:f.retries ~seed:k ())

(* One round's timed stream: [requests] queries drawn from the pool, then
   [update_pairs] revokes of a base rule, each followed by its re-grant.
   The revoked rules are the same in every round and every run (a
   revoke's cost depends on the rule, from milliseconds to a second on
   plan-cold, and runs differ in how many rounds they make); the seed
   draws the queries and their fault plans. *)
let stream w s ~seed ~round:i ~victim ~pool =
  let sqls = Array.of_list (List.map fst pool) in
  let r = rng w ~seed ("stream", i) in
  let ops = ref [] in
  for k = 0 to w.requests - 1 do
    let idx =
      match w.draw with
      | Round_robin -> k mod Array.length sqls
      | Zipf s -> Rng.zipf r ~s ~n:(Array.length sqls)
    in
    let fault = fault_plan w s r ~victim ~k:(Hashtbl.hash (seed, i, k)) in
    ops := Query { sql = sqls.(idx); fault } :: !ops
  done;
  let rules = Array.of_list (Authz.Policy.authorizations s.policy) in
  let revokes = rng w ~seed:0 "revokes" in
  for _ = 1 to w.update_pairs do
    let a = rules.(Rng.int revokes (Array.length rules)) in
    ops := Update (Grant a) :: Update (Revoke a) :: !ops
  done;
  Array.of_list (List.rev !ops)
