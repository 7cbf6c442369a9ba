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
  | Min_period
      (** minimize the steady-state initiation interval
          ({!Repro_sched.Periodic}): the right objective when the
          constraint is a pipeline period (one image every 40 ms)
          rather than a latency *)
  | Cost_under_deadline of { penalty_per_ms : float }
      (** minimize platform cost, with [penalty_per_ms] per millisecond
          of deadline overshoot; requires the application to declare a
          deadline *)

type config = {
  anneal : Repro_anneal.Annealer.config;
  moves : Moves.config;
  objective : objective;
}

val default_config : ?seed:int -> unit -> config
(** Fixed architecture, makespan objective, Lam schedule, the paper's
    1200-iteration infinite-temperature warmup. *)

val quality_config : ?seed:int -> float -> config
(** User-selected optimization quality in \[0,1\] (the paper's knob
    trading computing time for solution quality). *)

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
(** For results produced by an engine other than the annealer (see
    [engine] below), [infeasible] is 0 (only the annealer counts
    structurally invalid proposals). *)

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

val explore :
  ?trace:Trace.t -> ?initial:Solution.t -> ?checkpoint:Engine.checkpoint ->
  ?should_stop:(unit -> bool) -> ?engine:Engine.t ->
  config -> App.t -> Platform.t -> result
(** Run one exploration on the engine driver ({!Engine.drive}).  By
    default the engine is the annealer [config] describes: [warmup + iterations] moves
    under the configured schedule, objective and move set, seeded with
    [config.anneal.seed].  The initial solution defaults to
    {!Solution.random} drawn from a stream of its own with that seed;
    [initial] replaces it (the run anneals a copy).

    [checkpoint] makes the run crash-safe under the engine driver's
    contract: periodic and on-interrupt saves of kind ["dse-engine"],
    and, by its [resume] mode, a continuation that replays the
    uninterrupted run bit for bit.  The annealer's chain state records
    its warmup/cooling split, schedule, objective and move set, so a
    checkpoint taken under another configuration is refused with a
    one-line diagnostic even when seed and total budget agree.
    [should_stop] is polled at iteration boundaries — on [true] the run
    flushes a final checkpoint (when [checkpoint] is given) and returns
    with status [Interrupted].  Raises [Invalid_argument] when
    [Cost_under_deadline] is used on an application without a
    deadline.

    [engine] runs any registered engine instead, on
    [config.anneal.iterations] iterations with [config.anneal.seed]
    and the makespan objective; its observations carry temperature and
    context count 0. *)

val sa_engine : Engine.t
(** The annealer behind the uniform {!Engine.S} contract, under the
    name ["sa"].  The generic iteration budget is the run's {e total}
    move count: a tenth (capped at the paper's 1200, at least 1) is
    spent as infinite-temperature warmup and the rest cools under the
    default Lam schedule, so [iterations_run <= budget.iterations]
    holds like for every other engine; an evaluation budget is
    enforced exactly by capping the move count (the annealer spends at
    most one evaluation per move).  The objective is the makespan.
    It runs on {!Engine.drive} like {!explore}'s annealer, with the
    same versioned ["sa"] state codec. *)

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
  ?should_stop:(unit -> bool) -> ?engine:Engine.t ->
  ?restart_checkpoint:(int -> Engine.checkpoint) ->
  ?warm_start:Solution.t ->
  restarts:int -> config -> App.t -> Platform.t -> restarts_report
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

    Each chain is one {!explore} call with seed [config.anneal.seed +
    65537 * index], so [engine] (default: the configured annealer)
    chooses the search as there; restart 0 feeds [trace].  [jobs]
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
    the paper's cost-minimization story.  Each device is one {!explore}
    call on the default configuration with [seed] and [iterations]
    cooling moves (default 20000), so [engine] chooses the search as
    there; every device gets the same seed and budget, and [jobs]
    explores devices in parallel with identical output.

    Supervised: each device explores once, under its own
    [device_timeout] and failure isolation (a raising device is lost,
    never retried), and the report labels exactly which devices the
    frontier covers and which the caller's [should_stop] cut short.
    Candidates never interact before the final dominance pass, so the
    degraded frontier is the exact frontier of the surviving
    sub-catalogue. *)
