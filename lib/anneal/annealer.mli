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

val for_budget :
  ?seed:int -> ?warmup:int -> ?schedule:Schedule.t -> int -> config
(** [for_budget total] is the one recipe that turns a budget of [total]
    moves into a configuration: [warmup] moves at infinite temperature
    (default a tenth of [total], at least 1 and at most the paper's
    1200), then [total - warmup] cooling moves on [schedule] (default
    Lam at quality [150 /. float total]: 0.003 at 50000 moves, and a
    smaller budget cools proportionally faster, still sweeping the full
    range of temperatures).  Seed 1 by default.  Raises
    [Invalid_argument] with a one-line message when [warmup] is
    negative or leaves no cooling move ([warmup >= total]). *)

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
