(* servebench — the served-path benchmark.

   One process, one closed-loop client: each request waits for the
   previous reply. Every operation goes through the public
   Federation.create / query / grant / revoke API, and every answer is
   checked outside the timed region.

     servebench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the run reports the end-to-end metrics. With
   --trace 1 every served call is a span followed by an outside-in
   replay of each layer (see replay.ml), beside an untraced twin
   federation serving the same operations; the run reports the
   per-layer metrics and writes its spans under --out. Human-readable
   lines come first on stdout; the last line is one JSON object.

   Exit codes: 0 success; 1 a wrong answer (the JSON line is still
   printed, with "correct": false); 2 bad usage; 3 the traced replay
   did not reproduce the served execution (no JSON line). *)

open Relalg
module F = Federation
module W = Workloads

let now_s () = Int64.to_float (Spans.now ()) /. 1e9
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* Stop starting new rounds after this much wall time, whatever the
   sample counts, so a run always ends within its time limit. *)
let wall_cap_s = 110.

(* ------------------------------------------------------------------ *)
(* Answer verification, outside the timed region. *)

type verdict = Served | Refused | Failed of string | Wrong of string

let verify (s : W.system) fed oracle ~sql = function
  | Ok (r : F.response) -> (
    let _, expected = Hashtbl.find oracle sql in
    if not (Relation.equal expected r.result) then
      Wrong "answer differs from Engine.centralized"
    else
      match r.certificate with
      | None -> Wrong "served without a certificate"
      | Some cert -> (
        match
          Analysis.Certificate.check_plan ~revalidate:true
            ~joins:(F.join_graph fed) s.catalog (F.base_policy fed) r.plan
            cert
        with
        | [] -> Served
        | f :: _ ->
          Wrong
            (Fmt.str "certificate rejected: %a"
               Analysis.Certificate.pp_failure f)))
  | Error (F.Infeasible _) -> (
    let query, _ = Hashtbl.find oracle sql in
    match
      Planner.Third_party.plan ~helpers:[] s.catalog (F.serving_policy fed)
        (Query.to_plan query)
    with
    | Ok _ -> Wrong "Infeasible, but a fresh plan exists"
    | Error _ -> Refused)
  | Error e -> Failed (Fmt.str "%a" F.pp_error e)

(* ------------------------------------------------------------------ *)
(* What a run accumulates. *)

type tally = {
  mutable query_ms : float list;
  mutable update_ms : float list;
  mutable setup_s : float list;
  mutable heap_live_mb : float list;
  mutable served : int;  (* queries answered Ok *)
  mutable bytes : int;  (* response.bytes over them *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;
  mutable stream_s : float;
  mutable rounds : int;
  mutable probes_us : float list;
}

let new_tally () =
  {
    query_ms = [];
    update_ms = [];
    setup_s = [];
    heap_live_mb = [];
    served = 0;
    bytes = 0;
    attempted = 0;
    failed = 0;
    wrong = [];
    stream_s = 0.;
    rounds = 0;
    probes_us = [];
  }

let account t ~sql verdict =
  t.attempted <- t.attempted + 1;
  match verdict with
  | Served | Refused -> ()
  | Failed why ->
    t.failed <- t.failed + 1;
    Printf.eprintf "servebench: failed: %s: %s\n%!" sql why
  | Wrong why ->
    t.failed <- t.failed + 1;
    t.wrong <- (sql ^ ": " ^ why) :: t.wrong;
    Printf.eprintf "servebench: WRONG: %s: %s\n%!" sql why

(* What the traced run accumulates on top. *)
type layers = {
  spans : Spans.t;
  stream_reqs : (int, unit) Hashtbl.t;  (* timed-stream request ids *)
  mutable next_req : int;
  mutable counts : Replay.counts list;
  mutable untraced_sum : float;  (* the untraced twin's served ms *)
  mutable traced_sum : float;
  mutable minor_words : float;  (* around the twin's served queries *)
  mutable majors : int;
  mutable gc_queries : int;
  mutable hits : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable breaker_opens : int;
  mutable stream_ops : int;
  mutable audit_log : float list;  (* federation audit entries per round *)
  mutable rules : float list;  (* closure size per round *)
}

let new_layers () =
  {
    spans = Spans.create ();
    stream_reqs = Hashtbl.create 1024;
    next_req = 0;
    counts = [];
    untraced_sum = 0.;
    traced_sum = 0.;
    minor_words = 0.;
    majors = 0;
    gc_queries = 0;
    hits = 0;
    evictions = 0;
    invalidations = 0;
    breaker_opens = 0;
    stream_ops = 0;
    audit_log = [];
    rules = [];
  }

(* ------------------------------------------------------------------ *)
(* One round: a fresh federation, set up and warmed over the query pool,
   then the fixed-length timed stream. In a traced round a
   twin federation built from the same inputs serves every operation
   untraced, in lockstep and alternating which of the two goes first:
   [federation.trace_overhead] then compares the same request served
   milliseconds apart, and the GC counters are read around the twin's
   calls. *)

let most_bound_server (warm : (string * (F.response, F.error) result) list) =
  let tally = Hashtbl.create 8 in
  let bump s =
    let n = Server.name s in
    Hashtbl.replace tally n (1 + Option.value ~default:0 (Hashtbl.find_opt tally n))
  in
  List.iter
    (function
      | _, Ok (r : F.response) ->
        List.iter
          (fun (_, (e : Planner.Assignment.executor)) ->
            bump e.master;
            Option.iter bump e.slave;
            Option.iter bump e.coordinator)
          (Planner.Assignment.bindings r.assignment)
      | _, Error _ -> ())
    warm;
  Hashtbl.fold
    (fun n k best ->
      match best with
      | Some (bn, bk) when bk > k || (bk = k && bn < n) -> best
      | _ -> Some (n, k))
    tally None
  |> Option.map (fun (n, _) -> Server.make n)

let timed f =
  let t = Spans.now () in
  let v = f () in
  (v, Spans.ms_of_ns (Int64.sub (Spans.now ()) t))

let same_outcome (a : (F.response, F.error) result) b =
  match (a, b) with
  | Ok (a : F.response), Ok (b : F.response) ->
    a.bytes = b.bytes && Relation.equal a.result b.result
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

(* Each query of the pool with its answer from Engine.centralized. *)
let oracle (s : W.system) pool =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (sql, q) ->
      Hashtbl.replace t sql
        (q, Distsim.Engine.centralized ~instances:s.instances (Query.to_plan q)))
    pool;
  t

let round (w : W.t) (s : W.system) ~pool ~oracle ~seed ~index ~victim ~tally
    ~mode =
  let key sql = Query.canonical (fst (Hashtbl.find oracle sql)) in
  Gc.full_major ();
  let traced =
    match mode with
    | `Traced l -> Some (l, Replay.create l.spans s ~health_config:w.health)
    | `Plain -> None
  in
  let create () =
    F.create ~catalog:s.catalog ~policy:s.policy
      ~close_under:s.sys.Workload.System_gen.join_graph
      ~cache_capacity:w.cache_capacity ~health_config:w.health
      ~instances:s.instances ()
  in
  let p0 = Pace.probe () in
  let t0 = now_s () in
  let fed = create () in
  let twin = Option.map (fun _ -> create ()) traced in
  let turn = ref 0 in
  let serve_query ~stream ~sql ~fault =
    match (traced, twin) with
    | Some (l, rp), Some twin ->
      let untraced () =
        let w0 = Gc.minor_words () in
        let m0 = (Gc.quick_stat ()).major_collections in
        let r, ms = timed (fun () -> F.query ?fault twin sql) in
        if stream then begin
          l.minor_words <- l.minor_words +. (Gc.minor_words () -. w0);
          l.majors <- l.majors + (Gc.quick_stat ()).major_collections - m0;
          l.gc_queries <- l.gc_queries + 1;
          l.untraced_sum <- l.untraced_sum +. ms
        end;
        r
      in
      let traced () =
        let req = l.next_req in
        l.next_req <- req + 1;
        let quarantine, hit = Replay.before_query rp fed ~key:(key sql) in
        let r, root =
          Spans.record l.spans ~name:"federation.query" ~req (fun () ->
              F.query ?fault fed sql)
        in
        let c = Replay.query rp fed ~req ~root ~sql ~quarantine ~hit ~fault r in
        let ms = Spans.duration_ms root in
        if stream then begin
          Hashtbl.replace l.stream_reqs req ();
          l.counts <- c :: l.counts;
          l.traced_sum <- l.traced_sum +. ms
        end;
        (r, ms)
      in
      incr turn;
      let twin_r, (r, ms) =
        if !turn mod 2 = 0 then
          let a = untraced () in
          (a, traced ())
        else
          let b = traced () in
          (untraced (), b)
      in
      if not (same_outcome twin_r r) then
        raise (Replay.Unfaithful "the untraced twin answered differently");
      (r, ms)
    | _ -> timed (fun () -> F.query ?fault fed sql)
  in
  let serve_update u =
    let apply fed () =
      match u with W.Revoke a -> F.revoke fed a | W.Grant a -> F.grant fed a
    in
    Option.iter (fun twin -> apply twin ()) twin;
    match traced with
    | None -> snd (timed (apply fed))
    | Some (l, rp) ->
      let req = l.next_req in
      l.next_req <- req + 1;
      let (), root =
        Spans.record l.spans ~name:"federation.update" ~req (apply fed)
      in
      Replay.update rp ~req ~root u;
      Hashtbl.replace l.stream_reqs req ();
      Spans.duration_ms root
  in
  let warm =
    List.map
      (fun (sql, _) -> (sql, fst (serve_query ~stream:false ~sql ~fault:None)))
      pool
  in
  let setup = now_s () -. t0 in
  let setup = setup *. Pace.scale ~before:p0 ~after:(Pace.probe ()) in
  List.iter (fun (sql, r) -> account tally ~sql (verify s fed oracle ~sql r)) warm;
  let victim =
    match (w.faults, victim) with
    | None, _ | _, Some _ -> victim
    | Some _, None -> most_bound_server warm
  in
  let ops = W.stream w s ~seed ~round:index ~victim ~pool in
  let st0 = F.stats fed in
  let s0 = now_s () in
  (* Each operation is paced by the probes on either side of it. *)
  let last = ref (Pace.probe ()) in
  let paced ms =
    let p = Pace.probe () in
    let f = Pace.scale ~before:!last ~after:p in
    last := p;
    tally.probes_us <- p :: tally.probes_us;
    ms *. f
  in
  (* An update is a revoke plus its re-grant: the two calls' sum. *)
  let revoke_ms = ref 0. in
  Array.iter
    (function
      | W.Query { sql; fault } ->
        let r, ms = serve_query ~stream:true ~sql ~fault in
        let ms = paced ms in
        tally.query_ms <- ms :: tally.query_ms;
        (match r with
         | Ok r ->
           tally.served <- tally.served + 1;
           tally.bytes <- tally.bytes + r.bytes
         | Error _ -> ());
        account tally ~sql (verify s fed oracle ~sql r)
      | W.Update u -> (
        let ms = paced (serve_update u) in
        tally.attempted <- tally.attempted + 1;
        match u with
        | W.Revoke _ -> revoke_ms := ms
        | W.Grant _ -> tally.update_ms <- (!revoke_ms +. ms) :: tally.update_ms))
    ops;
  tally.stream_s <- tally.stream_s +. (now_s () -. s0);
  tally.setup_s <- setup :: tally.setup_s;
  tally.rounds <- tally.rounds + 1;
  (match traced with
   | Some (l, rp) ->
     let st1 = F.stats fed in
     l.hits <- l.hits + st1.cache_hits - st0.cache_hits;
     l.evictions <- l.evictions + st1.evictions - st0.evictions;
     l.invalidations <- l.invalidations + st1.invalidations - st0.invalidations;
     l.breaker_opens <- l.breaker_opens + st1.breaker_opens - st0.breaker_opens;
     l.stream_ops <- l.stream_ops + Array.length ops;
     l.audit_log <- float_of_int (List.length (F.audit_log fed)) :: l.audit_log;
     l.rules <-
       float_of_int (Authz.Policy.cardinality (Authz.Chase.closure rp.Replay.chase))
       :: l.rules
   | None -> ());
  Gc.full_major ();
  let live = (Gc.quick_stat ()).live_words in
  ignore (Sys.opaque_identity (fed, twin));
  tally.heap_live_mb <- mb live :: tally.heap_live_mb;
  victim

(* ------------------------------------------------------------------ *)
(* Reporting. *)

type metric = { name : string; unit_ : string; value : float; note : string }

let metric name unit_ value note = { name; unit_; value; note }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result (w : W.t) ~tally metrics =
  List.iter
    (fun m ->
      Printf.printf "%-15s %-28s %16.6f %-12s %s\n" w.name m.name m.value m.unit_
        m.note)
    metrics;
  Printf.printf
    "%-15s %-28s %16.6f %-12s failed %d of %d operations attempted\n" w.name
    "failed_frac"
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
    "ratio" tally.failed tally.attempted;
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (tally.wrong = []) (max 1 tally.attempted) tally.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name
              (json_number m.value) m.unit_)
          metrics));
  print_newline ()

let tail_note p xs =
  Printf.sprintf "p%g of n=%d, %d beyond" p (List.length xs) (Stats.beyond p xs)

let end_to_end (w : W.t) tally =
  let nq = List.length tally.query_ms and nu = List.length tally.update_ms in
  (* Throughput covers the queries: the update pairs after them are
     timed only for the update metrics. *)
  let busy_s = Stats.sum tally.query_ms /. 1e3 in
  [
    metric "query_p50_ms" "ms" (Stats.median tally.query_ms)
      (Printf.sprintf "median of n=%d" nq);
    metric "query_tail_ms" "ms"
      (Stats.percentile w.query_tail tally.query_ms)
      (tail_note w.query_tail tally.query_ms);
    metric "throughput_qps" "1/s"
      (float_of_int nq /. busy_s)
      (Printf.sprintf "%d queries / %.3f s served" nq busy_s);
    metric "update_p50_ms" "ms" (Stats.median tally.update_ms)
      (Printf.sprintf "median of n=%d revoke + re-grant pairs" nu);
    metric "update_tail_ms" "ms"
      (Stats.percentile w.update_tail tally.update_ms)
      (tail_note w.update_tail tally.update_ms);
    metric "wire_kb_per_query" "KB"
      (float_of_int tally.bytes /. 1e3 /. float_of_int (max 1 tally.served))
      (Printf.sprintf "%d bytes / %d served queries" tally.bytes tally.served);
    metric "setup_s" "s" (Stats.median tally.setup_s)
      (Printf.sprintf "median of %d set-ups" (List.length tally.setup_s));
    metric "heap_live_mb" "MB"
      (Stats.median tally.heap_live_mb)
      (Printf.sprintf "median of %d round ends" (List.length tally.heap_live_mb));
    metric "heap_peak_mb" "MB"
      (mb (Gc.quick_stat ()).top_heap_words)
      "top_heap_words at the end of the run";
  ]

(* The served path: the spans whose durations should add up to the
   served latency. exec.centralized and exec.batch_eval are alternative
   evaluations of the same plan, reported beside it. *)
let path_spans =
  [
    "sql_parser.parse";
    "query.canonical";
    "query.to_plan";
    "planner.plan";
    "certificate.emit";
    "certificate.check";
    "planner.trace";
    "advisor.advise";
    "engine.execute";
    "recover.execute";
    "health.observe";
    "audit.run";
  ]

let per_layer l =
  let selfs = Spans.self_ms l.spans in
  let total = Hashtbl.create 32 and served = Hashtbl.create 1024 in
  let path = Hashtbl.create 1024 in
  let nq = ref 0 and ngrant = ref 0 and nrevoke = ref 0 and close = ref [] in
  List.iter
    (fun ((sp : Spans.span), self) ->
      if sp.name = "chase.close" then close := self :: !close
      else if Hashtbl.mem l.stream_reqs sp.req then begin
        Hashtbl.replace total sp.name
          (self +. Option.value ~default:0. (Hashtbl.find_opt total sp.name));
        (match sp.name with
         | "federation.query" ->
           incr nq;
           Hashtbl.replace served sp.req (Spans.duration_ms sp)
         | "chase.add" -> incr ngrant
         | "chase.revoke" -> incr nrevoke
         | _ -> ());
        if List.mem sp.name path_spans then
          Hashtbl.replace path sp.req
            (Spans.duration_ms sp
            +. Option.value ~default:0. (Hashtbl.find_opt path sp.req))
      end)
    selfs;
  let q = float_of_int (max 1 !nq) in
  let per_query name = Option.value ~default:0. (Hashtbl.find_opt total name) /. q in
  let per n name =
    if n = 0 then 0.
    else Option.value ~default:0. (Hashtbl.find_opt total name) /. float_of_int n
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 l.counts in
  let count_per_query f = float_of_int (sum f) /. q in
  let served_ms = per_query "federation.query" in
  let unattributed =
    Hashtbl.fold
      (fun req ms acc ->
        acc +. ms -. Option.value ~default:0. (Hashtbl.find_opt path req))
      served 0.
    /. q
  in
  let base = Printf.sprintf "per query, n=%d" !nq in
  let us name = 1e3 *. per_query name in
  let messages = sum (fun c -> c.messages) in
  let gcq = float_of_int (max 1 l.gc_queries) in
  [
    metric "federation.query_ms" "ms" served_ms base;
    metric "federation.unattributed_ms" "ms" unattributed
      (Printf.sprintf "of a served latency of %.4f ms (%.2f%%)" served_ms
         (100. *. unattributed /. served_ms));
    metric "federation.trace_overhead" "ratio"
      ((l.traced_sum /. l.untraced_sum) -. 1.)
      (Printf.sprintf "traced %.1f ms vs untraced %.1f ms, same requests"
         l.traced_sum l.untraced_sum);
    metric "federation.cache_hit_ratio" "ratio"
      (float_of_int l.hits /. q)
      (Printf.sprintf "%d hits / %d queries" l.hits !nq);
    metric "federation.evictions" "count/query"
      (float_of_int l.evictions /. q)
      (Printf.sprintf "%d evictions" l.evictions);
    metric "federation.invalidations" "count/op"
      (float_of_int l.invalidations /. float_of_int (max 1 l.stream_ops))
      (Printf.sprintf "%d invalidations / %d operations" l.invalidations
         l.stream_ops);
    metric "federation.audit_entries" "count" (Stats.median l.audit_log)
      "audit log length at round end, median";
    metric "sql_parser.parse_us" "us" (us "sql_parser.parse") base;
    metric "query.canonical_us" "us" (us "query.canonical") base;
    metric "query.to_plan_us" "us" (us "query.to_plan") base;
    metric "planner.plan_ms" "ms" (per_query "planner.plan") base;
    metric "planner.trace_ms" "ms" (per_query "planner.trace") base;
    metric "planner.calls" "count/query"
      (count_per_query (fun c -> Bool.to_int c.planned))
      base;
    metric "advisor.advise_ms" "ms" (per_query "advisor.advise") base;
    metric "certificate.emit_ms" "ms" (per_query "certificate.emit") base;
    metric "certificate.check_ms" "ms" (per_query "certificate.check") base;
    metric "chase.close_ms" "ms" (Stats.median !close)
      (Printf.sprintf "median of %d closures" (List.length !close));
    metric "chase.add_ms" "ms" (per !ngrant "chase.add")
      (Printf.sprintf "per grant, n=%d" !ngrant);
    metric "chase.revoke_ms" "ms" (per !nrevoke "chase.revoke")
      (Printf.sprintf "per revoke, n=%d" !nrevoke);
    metric "chase.rules" "count" (Stats.median l.rules)
      "closure size at round end, median";
    metric "engine.execute_ms" "ms" (per_query "engine.execute") base;
    metric "engine.steps" "count/query" (count_per_query (fun c -> c.steps)) base;
    metric "engine.alloc_mw" "Mw"
      (List.fold_left (fun a c -> a +. c.Replay.exec_words) 0. l.counts /. q /. 1e6)
      (base ^ ", replayed execution");
    metric "exec.centralized_ms" "ms" (per_query "exec.centralized") base;
    metric "exec.batch_eval_ms" "ms" (per_query "exec.batch_eval") base;
    metric "network.messages" "count/query"
      (count_per_query (fun c -> c.messages))
      base;
    metric "network.bytes" "B/query" (count_per_query (fun c -> c.bytes)) base;
    metric "network.tuples" "count/query" (count_per_query (fun c -> c.tuples)) base;
    metric "network.retransmissions" "count/query"
      (count_per_query (fun c -> c.retransmissions))
      base;
    metric "network.delivered_ratio" "ratio"
      (float_of_int (sum (fun c -> c.delivered)) /. float_of_int (max 1 messages))
      (Printf.sprintf "%d delivered / %d sent" (sum (fun c -> c.delivered)) messages);
    metric "audit.run_us" "us" (us "audit.run") base;
    metric "audit.entries" "count/query"
      (count_per_query (fun c -> c.audit_entries))
      base;
    metric "recover.execute_ms" "ms" (per_query "recover.execute") base;
    metric "recover.failovers" "count/query"
      (count_per_query (fun c -> c.failovers))
      (Printf.sprintf "%d failovers" (sum (fun c -> c.failovers)));
    metric "health.observe_us" "us" (us "health.observe") base;
    metric "health.breaker_opens" "count/query"
      (float_of_int l.breaker_opens /. q)
      (Printf.sprintf "%d breaker opens" l.breaker_opens);
    metric "health.quarantined" "servers"
      (count_per_query (fun c -> c.quarantined))
      "quarantined servers at request time, mean";
    metric "gc.minor_mw_per_query" "Mw"
      (l.minor_words /. gcq /. 1e6)
      (Printf.sprintf "untraced served calls, n=%d" l.gc_queries);
    metric "gc.major_collections" "count/query"
      (float_of_int l.majors /. gcq)
      (Printf.sprintf "%d major collections over %d untraced queries" l.majors
         l.gc_queries);
  ]

(* ------------------------------------------------------------------ *)

let usage = "servebench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed-stream seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--out", Arg.Set_string out, "DIR where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "servebench: unknown workload %S (one of %s)\n" !workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
      exit 2
  in
  let s = W.system w ~seed:!seed in
  let pool = W.query_pool w s in
  let oracle = oracle s pool in
  let tally = new_tally () in
  let start = now_s () in
  let enough () =
    tally.rounds >= w.min_rounds
    && (now_s () -. start > wall_cap_s
       || tally.stream_s >= !seconds
          && List.length tally.query_ms >= Stats.min_samples w.query_tail)
  in
  let victim = ref None and index = ref 0 in
  if !trace = 0 then begin
    while not (enough ()) do
      victim := round w s ~pool ~oracle ~seed:!seed ~index:!index ~victim:!victim ~tally ~mode:`Plain;
      incr index
    done;
    Printf.printf
      "# %s seed=%d rounds=%d stream=%.2fs%s pace probe median %.1f us \
       (times below are paced to %.0f us)\n"
      w.name !seed tally.rounds tally.stream_s
      (match !victim with
       | Some v -> " victim=" ^ Server.name v
       | None -> "")
      (Stats.median tally.probes_us)
      Pace.reference_us;
    print_result w ~tally (end_to_end w tally)
  end
  else begin
    let l = new_layers () in
    (try
       while
         tally.rounds < 1
         || (tally.stream_s < !seconds && now_s () -. start < wall_cap_s)
       do
         victim :=
           round w s ~pool ~oracle ~seed:!seed ~index:!index ~victim:!victim ~tally
             ~mode:(`Traced l);
         incr index
       done
     with Replay.Unfaithful why ->
       Printf.eprintf "servebench: traced replay is unfaithful: %s\n" why;
       exit 3);
    (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
    let path =
      Filename.concat !out (Printf.sprintf "spans-%s-seed%d.jsonl" w.name !seed)
    in
    Spans.write l.spans path;
    Printf.printf "# %s seed=%d traced rounds=%d spans -> %s\n" w.name !seed
      tally.rounds path;
    print_result w ~tally (per_layer l)
  end;
  if tally.wrong <> [] then exit 1
