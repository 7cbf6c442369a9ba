(** The design-space-exploration tool: adaptive simulated annealing
    over the coupled spatial-partitioning / temporal-partitioning /
    scheduling space.

    The default objective is the paper's experimental one (architecture
    fixed, minimize execution time); the cost-minimization objective of
    the general method (minimize system cost subject to the performance
    constraint) is available for architecture exploration with a device
    catalogue. *)

open Repro_taskgraph
open Repro_arch
open Repro_sched

type objective =
  | Makespan
      (** minimize execution time — architecture fixed, as in §5 *)
  | Makespan_serialized
      (** minimize execution time under the explicit bus-transaction
          model ({!Repro_sched.Searchgraph.evaluate_serialized}):
          concurrent boundary crossings contend for the shared medium *)
  | Cost_under_deadline of { penalty_per_ms : float }
      (** minimize platform cost, with [penalty_per_ms] per millisecond
          of deadline overshoot; requires the application to declare a
          deadline *)

type config = {
  anneal : Repro_anneal.Annealer.config;
  moves : Moves.config;
  objective : objective;
}

val sa_config : ?seed:int -> int -> config
(** Fixed architecture, makespan objective, and the annealer's one
    recipe for a budget of [total] moves,
    {!Repro_anneal.Annealer.for_budget}: a tenth of them (at least 1, at
    most the paper's 1200) at infinite temperature, then Lam cooling at
    quality [150 / total]. *)

val quality_config : ?seed:int -> float -> config
(** User-selected optimization quality [q] in \[0,1\] (the paper's knob
    trading computing time for solution quality): {!sa_config} on a
    budget growing geometrically from 2000 moves (q=0) to 200000
    (q=1). *)

type result = {
  best : Solution.t;
  best_eval : Searchgraph.eval;
  best_cost : float;
  initial_cost : float;
  iterations_run : int;
  accepted : int;
  infeasible : int;
  wall_seconds : float;
  status : Engine.status;
  (** [Interrupted] when [should_stop] ended the run early; the best
      solution is still the best seen so far. *)
}
(** [infeasible] counts the annealer's structurally invalid proposals
    (never evaluated); 0 for every other engine. *)

val cost_of : objective -> Solution.t -> float
(** The scalar the annealer minimizes. *)

val read_incumbent :
  string -> App.t -> Platform.t -> (Solution.t, string) Stdlib.result
(** [read_incumbent path app platform] extracts the best-so-far
    solution from any engine checkpoint (kind ["dse-engine"], the one
    driver format every engine writes) and decodes it against
    [app] and [platform].  This is the [--seed-from] primitive: no
    fingerprint is checked, so an incumbent found by one engine (any
    seed, any budget) can warm-start any other; the only contract is
    that the donor ran on the same inputs (the decode fails
    otherwise). *)

val budget : config -> int
(** [warmup_iterations + iterations]: every engine's budget in
    {!explore_with}. *)

val annealer : config -> Engine.t
(** ["sa"] as [config] describes it: [warmup_iterations] moves at
    infinite temperature, then [iterations] cooling ones.  Its chain
    state records that split, the schedule, objective and move set, so
    a checkpoint taken under another configuration is refused in one
    line even when seed and total budget agree. *)

val sa_engine : Engine.t
(** The registered ["sa"]: [annealer (sa_config n)] on each run's
    budget [n], capped by an evaluation budget (the annealer spends at
    most one evaluation per move).  A budget below 2 raises
    [Invalid_argument]. *)

val explore_with :
  ?trace:Trace.t -> ?initial:Solution.t -> ?checkpoint:Engine.checkpoint ->
  ?should_stop:(unit -> bool) -> Engine.t ->
  config -> App.t -> Platform.t -> result
(** Run [engine] once on {!Engine.run} for [budget config] iterations,
    seeded with [config.anneal.seed]; only the annealer reads the rest
    of [config].  [initial] replaces the initial solution (the run
    works on a copy).  [trace] records every iteration: the annealer's
    entries count from the end of warmup and carry its temperature and
    context count (0 for other engines).  [checkpoint] and
    [should_stop] as in {!Engine.run}: periodic and on-interrupt saves
    of kind ["dse-engine"] that resume bit for bit, and status
    [Interrupted] when the stop probe ends the run.  Raises
    [Invalid_argument] when [Cost_under_deadline] is used on an
    application without a deadline. *)

val explore :
  ?trace:Trace.t -> ?initial:Solution.t -> ?checkpoint:Engine.checkpoint ->
  ?should_stop:(unit -> bool) -> config -> App.t -> Platform.t -> result
(** [explore_with (annealer config) config]. *)

val meets_deadline : App.t -> Searchgraph.eval -> bool
(** True when the application declares no deadline or the evaluated
    makespan honours it. *)

type restarts_report = {
  best_result : result option;
  (** best over surviving restarts; [None] when every restart was
      lost *)
  restart_costs : (int * float) list;
  (** (restart index, best cost) for each survivor, in index order —
      timed-out restarts contribute their best-so-far *)
  restart_outcomes : result Repro_util.Parallel.outcome array;
  (** one verdict per restart, in index order, as the pool returned
      it *)
  degraded : int;
  (** restarts that did not complete cleanly; [0] means every restart
      is [Done] *)
}

val explore_restarts :
  ?trace:Trace.t -> ?jobs:int -> ?restart_timeout:float ->
  ?should_stop:(unit -> bool) ->
  ?restart_checkpoint:(int -> Engine.checkpoint) ->
  ?warm_start:Solution.t ->
  restarts:int -> Engine.t -> config -> App.t -> Platform.t ->
  restarts_report
(** Run [restarts] independent explorations and keep the best — the
    usual defense against annealing variance, and the data behind the
    paper's Fig. 3 averaging.  Supervised: one raising or overrunning
    chain never costs the others their results.  Each restart runs
    under [restart_timeout] wall seconds (cooperatively — the deadline
    is the engine's stop probe, so an over-budget chain flushes and
    yields best-so-far at an iteration boundary), runs once — a
    raising chain is lost, never retried — and resolves to its own
    {!Repro_util.Parallel.outcome}.  The report aggregates over
    survivors; consumers must treat [degraded > 0] as a partial (still
    deterministic) answer.  Raises [Invalid_argument] when
    [restarts < 1].

    Each chain is one {!explore_with} call of [engine] with seed
    [config.anneal.seed + 65537 * index]; restart 0 feeds [trace].  [jobs]
    (default 1) runs the chains on that many domains
    ({!Repro_util.Parallel}); seeds derive from the index and results
    fold in index order, so the report and the trace are bit-identical
    for every [jobs].

    [restart_checkpoint] makes the supervised run crash-safe: it maps
    a restart index to that chain's {!Engine.checkpoint} (path,
    cadence, resume mode).  Because per-restart seeds are derived from
    the index, each chain's checkpoint resumes exactly that chain.

    [warm_start] hands every restart the same donated incumbent (see
    {!read_incumbent}) as its initial solution.  A resumed chain
    ignores it — the warm start is baked into the checkpointed
    state. *)

type frontier_point = {
  platform : Platform.t;
  eval : Searchgraph.eval;
  cost : float;
  meets : bool;
}

type frontier_report = {
  frontier : frontier_point list;
  (** Pareto frontier over the devices that completed (or salvaged a
      best-so-far under a timeout) *)
  device_outcomes : frontier_point Repro_util.Parallel.outcome array;
  (** one verdict per catalogue device, in catalogue order *)
  devices_lost : int;
  (** devices that did not complete cleanly; when positive the
      frontier is partial — it equals the frontier of the catalogue
      with those devices excluded a priori *)
  devices_cut_short : int list;
  (** catalogue indices, ascending, of devices whose exploration the
      caller's [should_stop] ended early: each is [Done] and its
      best-so-far point is a frontier candidate, so the frontier is
      provisional *)
}

val cost_performance_frontier :
  ?seed:int -> ?iterations:int -> ?jobs:int -> ?device_timeout:float ->
  ?should_stop:(unit -> bool) -> ?engine:Engine.t ->
  App.t -> Platform.t list -> frontier_report
(** Explore the application once per catalogue platform (makespan
    objective) and keep the Pareto-dominant (platform cost, makespan)
    points, sorted by increasing cost — the designer-facing output of
    the paper's cost-minimization story.  Each device is one
    {!explore_with} call of [engine] (default {!sa_engine}) with [seed]
    and a budget of [iterations] (default 20000) in all; every device
    gets the same seed and budget, and [jobs] explores devices in
    parallel with identical output.

    Supervised: each device explores once, under its own
    [device_timeout] and failure isolation (a raising device is lost,
    never retried), and the report labels exactly which devices the
    frontier covers and which the caller's [should_stop] cut short.
    Candidates never interact before the final dominance pass, so the
    degraded frontier is the exact frontier of the surviving
    sub-catalogue. *)
