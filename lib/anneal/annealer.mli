(** Generic simulated annealing: the Metropolis step.

    The step is problem-agnostic: a problem is a mutable state, a cost
    function, and a move proposer that mutates the state and returns
    an undo.  The step runs the paper's protocol — a warmup
    phase at infinite temperature to sample the cost landscape, then
    adaptive cooling — one move at a time, on a {!chain} that holds
    everything the protocol remembers between moves (schedule, warmup
    statistics, current cost).  The loop around it is the generic
    engine driver's ([Repro_dse.Engine.drive]), which adds interruption
    and checkpoint/resume, the paper's "iterative, can be interrupted
    by the user at any time": the design-space explorer and multi-mode
    mapping both anneal there, and carry their chain across a
    checkpoint with {!encode_chain}. *)

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
    captured by {!encode_chain}; {!decode_chain} rebuilds it
    bit-exactly. *)

val start : config -> cost:float -> chain
(** A fresh chain whose current state costs [cost]: the schedule is
    instantiated from the configured recipe and [cost] is the first
    warmup sample. *)

val encode_chain : chain -> string
(** The chain as three lines, [schedule], [warmup] and [current],
    floats in ["%h"] (no trailing newline). *)

val decode_chain :
  config -> string list -> (chain * string list, string) result
(** Rebuild a chain from the first three of these lines, as
    {!encode_chain} wrote them, and return it with the lines that
    follow.  [Error] is a one-line reason: a missing or malformed line,
    or an encoding that does not fit the configured schedule. *)

type move =
  | Infeasible  (** the proposal was structurally invalid; no cost evaluated *)
  | Rejected    (** evaluated and undone *)
  | Accepted    (** evaluated and kept; [current_cost] is its cost *)

val step :
  config -> chain -> Repro_util.Rng.t -> 'state -> iteration:int ->
  cost:('state -> float) ->
  propose:(Repro_util.Rng.t -> 'state -> (unit -> unit) option) -> move
(** One Metropolis move at global iteration [iteration].  [propose]
    mutates the state into a neighbour and returns the undo, or [None]
    when the drawn move is infeasible (e.g. would create a cycle): the
    iteration is counted but nothing changes, not even the schedule,
    matching the paper's "a move will not be performed if a cycle
    appears".  [cost] is then called once; smaller is better.
    Iterations \[0, warmup) run at infinite temperature and feed the
    warmup statistics; at [iteration = warmup] the schedule starts from
    those statistics, and later moves cool adaptively.  Given the same
    chain, state and random stream, the step makes the same decision —
    so a loop that saves and restores all three at an iteration
    boundary replays its uninterrupted run bit for bit. *)
