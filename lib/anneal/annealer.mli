(** Generic simulated annealing: the Metropolis step.

    The step is problem-agnostic: a problem provides a mutable state, a
    cost function, and a move proposer that mutates the state and
    returns an undo.  The step runs the paper's protocol — a warmup
    phase at infinite temperature to sample the cost landscape, then
    adaptive cooling — one move at a time, on a {!chain} that holds
    everything the protocol remembers between moves (schedule, warmup
    statistics, current cost).  Callers own the loop around it: the
    design-space explorer drives it through the generic engine driver
    (which adds interruption and checkpoint/resume, the paper's
    "iterative, can be interrupted by the user at any time"), and
    {!Make.run} is a plain loop with no checkpoint for small problems. *)

module type PROBLEM = sig
  type state

  val cost : state -> float
  (** Cost of the current state; smaller is better.  Called once after
      each feasible proposed move. *)

  val snapshot : state -> state
  (** Immutable copy used to remember the best solution found. *)

  val propose : Repro_util.Rng.t -> state -> (unit -> unit) option
  (** Mutate the state into a neighbour; return the undo.  [None] when
      the drawn move is infeasible (e.g. would create a cycle): the
      iteration is counted but nothing changes, matching the paper's
      "a move will not be performed if a cycle appears". *)
end

type config = {
  iterations : int;       (** cooling iterations after warmup *)
  warmup_iterations : int;  (** iterations at infinite temperature *)
  schedule : Schedule.t;
  seed : int;
}

val default_config : config
(** 50000 iterations, 1200 warmup (the paper's Fig. 2 uses 1200),
    Lam schedule with quality 0.003, seed 1. *)

val lam_schedule : int -> Schedule.t
(** [lam_schedule iterations] is the Lam schedule for a budget of
    [iterations] cooling moves: quality [150 / iterations], so a
    larger budget cools proportionally slower and still sweeps the
    full range of temperatures. *)

val config_of_budget : ?seed:int -> ?warmup:int -> int -> config
(** [config_of_budget iterations] anneals for [iterations] cooling
    moves on {!lam_schedule}, after [warmup] moves at infinite
    temperature (default [max 200 (iterations / 20)]).  Seed 1 by
    default. *)

val config_of_quality : ?seed:int -> float -> config
(** [config_of_quality q] maps the user-selected optimization quality
    [q] in \[0,1\] to a budget for {!config_of_budget}: iterations
    grow geometrically from 2k (q=0) to 200k (q=1). *)

type chain = {
  schedule : Schedule.instance;
  warmup : Repro_util.Stats.Running.t;
  (** cost samples of the warmup phase; they start the schedule *)
  mutable current_cost : float;
  mutable temperature : float;
  (** temperature of the latest move (infinite during warmup) *)
}
(** The annealing state carried between moves, apart from the problem
    state and the random stream.  Everything a chain remembers is
    captured by {!Schedule.capture}, {!Repro_util.Stats.Running.state}
    and [current_cost]; {!restore} rebuilds it bit-exactly. *)

val start : config -> cost:float -> chain
(** A fresh chain whose current state costs [cost]: the schedule is
    instantiated from the configured recipe and [cost] is the first
    warmup sample. *)

val restore :
  config -> schedule:float array -> warmup:float array -> cost:float -> chain
(** Rebuild a chain from its captured parts.  Raises [Invalid_argument]
    when an encoding does not fit the configured schedule. *)

type move =
  | Infeasible  (** the proposal was structurally invalid; no cost evaluated *)
  | Rejected    (** evaluated and undone *)
  | Accepted    (** evaluated and kept; [current_cost] is its cost *)

type 'state outcome = {
  best : 'state;
  best_cost : float;
  final_cost : float;
  iterations_run : int;
  accepted : int;
  infeasible : int;   (** proposals rejected as structurally invalid *)
}

module Make (P : PROBLEM) : sig
  val step :
    config -> chain -> Repro_util.Rng.t -> P.state -> iteration:int -> move
  (** One Metropolis move at global iteration [iteration]: iterations
      \[0, warmup) run at infinite temperature and feed the warmup
      statistics; at [iteration = warmup] the schedule starts from
      those statistics, and later moves cool adaptively.  An
      infeasible proposal changes nothing, not even the schedule.
      Given the same chain, state and random stream, the step makes
      the same decision — so a loop that saves and restores all three
      at an iteration boundary replays its uninterrupted run bit for
      bit. *)

  val run :
    ?trace:(iteration:int -> cost:float -> best:float -> temperature:float ->
            accepted:bool -> unit) ->
    config -> P.state -> P.state outcome
  (** Anneal starting from (and mutating) the given state for the whole
      warmup + cooling budget, drawing from [Rng.create config.seed].
      The trace callback fires once per iteration, warmup included
      (warmup iterations have negative [iteration] numbers counting up
      to -1, cooling starts at 0). *)
end
