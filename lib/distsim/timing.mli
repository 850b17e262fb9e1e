(** Latency/bandwidth timing model: query makespan over an executed
    plan.

    The paper motivates executor placement by performance ("the
    minimization of data exchanges and the execution of steps of the
    queries in locations where it can be less costly", Section 1).
    This module turns a concrete execution — the plan, the assignment
    and the engine's measurements — into an estimated {e makespan},
    under a network model with per-link latency and bandwidth and a
    per-tuple local-processing cost.

    Completion times compose bottom-up:

    - a leaf is ready at time 0 at its server;
    - a unary node finishes when its operand is ready plus local work;
    - a regular join waits for the master operand and for the other
      operand's arrival (ready + transfer), then joins;
    - a semi-join chains the five steps of Figure 5: project, ship,
      join at the slave, ship back, final join — {e two} latencies on
      the critical path, against one for the regular join. This is the
      classical trade-off: semi-joins save bytes but pay an extra round
      trip, so high-latency/high-bandwidth networks favour regular
      joins and slow links favour semi-joins (experiment EXP-H).

    Independent subtrees overlap fully (servers are assumed not to be
    compute-bound across nodes). *)

open Relalg

type link = {
  latency : float;  (** seconds per message *)
  bandwidth : float;  (** bytes per second *)
}

type model = {
  link : Server.t -> Server.t -> link;
  per_tuple : float;  (** seconds of local work per tuple touched *)
}

(** Same link everywhere. Defaults: [latency = 1 ms],
    [bandwidth = 10 MB/s], [per_tuple = 1 us]. *)
val uniform : ?latency:float -> ?bandwidth:float -> ?per_tuple:float -> unit -> model

type schedule = {
  finish : (int * float) list;  (** completion time per node id *)
  makespan : float;  (** completion of the root *)
}

(** [makespan model plan assignment outcome] replays the execution's
    message log against the model. The [outcome] must come from
    {!Engine.execute} on the same plan and assignment.

    Under fault injection a delivered message may have been preceded by
    failed attempts of the same protocol step; each is priced like a
    send (latency + bytes/bandwidth) plus [backoff attempt] seconds of
    waiting before the retry (default: no wait — pass
    [Fault.backoff fault_plan] to price the injector's schedule).
    Waits caused by a transiently-down {e sender} leave no message in
    the log and are not priced here.
    @raise Invalid_argument if the outcome does not match the plan
    (missing node measurements). *)
val makespan :
  ?backoff:(int -> float) ->
  model ->
  Plan.t ->
  Planner.Assignment.t ->
  _ Engine.run ->
  schedule

val pp_schedule : schedule Fmt.t
