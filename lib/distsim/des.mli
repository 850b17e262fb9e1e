(** Discrete-event simulation of query executions under resource
    contention.

    {!Timing.makespan} assumes servers and links are never busy —
    fine for one query, wrong for a workload. This module simulates
    non-preemptive list scheduling over single-capacity resources
    (one CPU per server, one FIFO channel per directed link), so
    concurrent queries contend realistically: a shared master
    serialises their joins, a shared link serialises their transfers.

    A query execution is decomposed into a task graph by
    {!tasks_of_execution}: one compute task per plan node, plus the
    transfer and remote-compute tasks of its join protocols (regular,
    semi-join, coordinator, proxy — mirroring {!Engine}). Task
    durations come from the {e measured} execution (tuple counts and
    message sizes), priced by a {!Timing.model}.

    The scheduler is deterministic: among runnable tasks it starts the
    one with the earliest feasible start time (ties broken by ready
    time, then id), matching FIFO service at every resource. *)

open Relalg

type task = {
  id : string;  (** unique within one {!simulate} call *)
  resource : string;  (** ["cpu:SERVER"] or ["link:SRC->DST"] *)
  duration : float;  (** seconds *)
  deps : string list;  (** ids that must finish first *)
  release : float;  (** earliest start (query arrival time) *)
}

type scheduled = {
  task : task;
  start : float;
  finish : float;
}

type run = {
  schedule : scheduled list;  (** by increasing start time *)
  makespan : float;  (** latest finish, 0 for an empty task list *)
  utilization : (string * float) list;
      (** per resource: busy time / makespan (sorted by name) *)
}

(** What makes a task list not a schedulable DAG. *)
type graph_error =
  | Duplicate_task of string
  | Unknown_dependency of { task : string; dep : string }
  | Dependency_cycle of string list
      (** task ids on or downstream of a cycle, sorted *)

exception Invalid_graph of graph_error

(** [validate tasks] checks that [tasks] form a schedulable DAG —
    unique ids, known dependencies, no cycles — reporting the first
    problem found (in that order of priority). *)
val validate : task list -> (unit, graph_error) result

(** Simulate a task set.
    @raise Invalid_graph when {!validate} rejects the task list. *)
val simulate : task list -> run

(** [cpu server] and [link ~src ~dst] build resource names. *)
val cpu : Server.t -> string

val link : src:Server.t -> dst:Server.t -> string

(** Decompose one executed query into tasks. [prefix] namespaces the
    ids so several queries can share a simulation; [release] is the
    query's arrival time (default 0). The [outcome] must come from
    {!Engine.execute} on the same plan and assignment.

    Under fault injection each delivered transfer expands into its
    whole attempt chain: failed attempts become link tasks named
    ["<task>~aK"] (attempt [K]), each adding [backoff K] seconds of
    wait (default 0 — pass [Fault.backoff fault_plan]) on top of its
    wire time, chained by dependency before the delivered attempt,
    which keeps the un-suffixed name so downstream dependencies are
    unchanged. *)
val tasks_of_execution :
  ?prefix:string ->
  ?release:float ->
  ?backoff:(int -> float) ->
  Timing.model ->
  Plan.t ->
  Planner.Assignment.t ->
  _ Engine.run ->
  task list

val pp_graph_error : graph_error Fmt.t

(** Completion time of a query's root task within a run, or [None] if
    no task under [prefix] appears in the schedule (same typed-error
    discipline as {!validate} — no bare exceptions). *)
val query_finish : run -> prefix:string -> float option

(** Did the query under [prefix] finish by [deadline] (simulated
    seconds)? [None] when the query does not appear in the schedule —
    the service layer treats that as a miss, never a hit. *)
val deadline_met : run -> prefix:string -> deadline:float -> bool option

val pp_run : run Fmt.t
