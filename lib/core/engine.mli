(** The uniform search-engine contract.

    The paper's headline claim is a comparison: adaptive annealing
    against alternative search methods on the same GTLP search space.
    That comparison is only fair when every engine runs under identical
    budgets, seeding and measurement.  This module is the contract that
    makes it so: every engine — the annealer and each baseline — is a
    first-class module of signature {!S}, and every run of one through
    {!run} obeys the same rules:

    - {b determinism}: the engine derives every random decision from a
      {!Repro_util.Rng} stream seeded with [context.seed]; equal
      contexts give bit-identical outcomes;
    - {b budget}: at most [budget.iterations] iterations are run (the
      engine's natural unit — moves, generations, samples, sweep
      points), and an optional wall-clock [time_limit] is enforced
      cooperatively at iteration boundaries;
    - {b stop probe}: [should_stop] is polled at every iteration
      boundary; when it answers [true] the engine returns within one
      iteration, with a valid best-so-far and status {!Interrupted};
    - {b timing}: [wall_seconds] is elapsed time on the monotonic
      {!Repro_util.Clock.mono} (never [Sys.time] CPU time), so the
      seconds columns of every engine are comparable;
    - {b observability}: when [observe] is given it fires once per
      iteration with the current and best cost and the acceptance
      flag;
    - {b snapshots}: [outcome.best] is a deep copy; mutating the
      engine's working state (or the returned best) afterwards cannot
      corrupt it.

    An engine does not run itself: it {e starts} a {!session}, a run in
    progress that advances on request.  {!run} is the one loop over
    sessions: it polls the stop probe, and it alone reads and writes
    checkpoint files.  Every engine in the repository — the annealer
    included — builds its session with the generic driver {!drive},
    which centralizes the budget accounting, best-snapshot bookkeeping
    and the checkpoint payload; the portfolio builds its own over its
    members' sessions.  {!run_driven} is the same loop over the same
    driver for a search whose best is not a {!Solution.t}: multi-mode
    mapping anneals there. *)

open Repro_taskgraph
open Repro_arch

(** {1 Contract types} *)

type budget = {
  iterations : int;
  (** iteration budget, in the engine's natural unit (annealing moves,
      GA generations, random samples, hill-climbing moves, tabu steps,
      greedy sweep points) *)
  time_limit : float option;
  (** optional wall-clock budget in seconds, enforced cooperatively at
      iteration boundaries; [None] = unlimited *)
  max_evaluations : int option;
  (** optional cost-evaluation budget, the engine-neutral currency:
      the run completes at the first iteration boundary where
      [evaluations >= max_evaluations], so the final count may
      overshoot by at most one iteration's evaluations.  [None] =
      unlimited.  Lets [dse-compare] hand every engine the same number
      of cost evaluations instead of per-name iteration heuristics. *)
}

type status =
  | Complete     (** ran to the end of the iteration budget *)
  | Interrupted  (** stopped early by the stop probe or the time limit *)

val status_name : status -> string
(** ["complete"] / ["interrupted"], the strings used in result files. *)

type probe = {
  iteration : int;    (** 0-based iteration index *)
  cost : float;       (** cost of the working state after the iteration *)
  best : float;       (** best cost seen so far *)
  accepted : bool;    (** the iteration changed the working state *)
  temperature : float;  (** the annealer's temperature, 0 for others *)
  n_contexts : int;     (** the annealer's context count, 0 for others *)
}
(** One per-iteration observation, delivered to [context.observe]. *)

type resume_mode =
  | Resume_never      (** start fresh; only write checkpoints *)
  | Resume_if_exists  (** resume when a usable checkpoint exists; warn
                          and start fresh on a missing or unusable one *)
  | Resume_required   (** fail (one-line [Failure]) unless the
                          checkpoint loads and validates *)

type checkpoint = {
  path : string;  (** checkpoint file, written atomically *)
  every : int;    (** cadence in iterations between periodic saves; a
                      final save also happens on interruption *)
  resume : resume_mode;
}
(** Crash-safety contract for a run: where {!run} persists its
    state, how often, and whether to continue from an existing file. *)

type controls
(** A {!context} less its inputs and warm start: what a run obeys,
    whatever it searches. *)

val controls :
  ?time_limit:float -> ?max_evaluations:int -> ?should_stop:(unit -> bool) ->
  ?observe:(probe -> unit) -> ?checkpoint:checkpoint -> seed:int ->
  iterations:int -> unit -> controls
(** Validated as {!context} validates them. *)

type context = {
  app : App.t;
  platform : Platform.t;
  seed : int;
  budget : budget;
  should_stop : (unit -> bool) option;
  observe : (probe -> unit) option;
  checkpoint : checkpoint option;
  warm_start : Solution.t option;
  (** optional incumbent to start from instead of the engine's native
      initial state (cross-engine warm starts: [--seed-from], portfolio
      chain mode).  Engines adopt it as their initial working state /
      seed member; determinism still holds — equal contexts (including
      equal warm starts) give bit-identical outcomes. *)
}
(** Everything an engine may read.  Engines must not consult any other
    source of randomness, time or configuration. *)

val context :
  ?time_limit:float ->
  ?max_evaluations:int ->
  ?should_stop:(unit -> bool) ->
  ?observe:(probe -> unit) ->
  ?checkpoint:checkpoint ->
  ?warm_start:Solution.t ->
  app:App.t -> platform:Platform.t -> seed:int -> iterations:int -> unit ->
  context

type 'best outcome_of = {
  best : 'best;               (** deep copy of the best state found *)
  best_cost : float;          (** its cost (an engine's: the makespan, ms) *)
  initial_cost : float;       (** cost of the engine's initial state *)
  iterations_run : int;       (** <= [budget.iterations], always *)
  evaluations : int;          (** cost-function evaluations performed *)
  accepted : int;             (** iterations that changed the state *)
  wall_seconds : float;       (** elapsed, {!Repro_util.Clock.mono} *)
  status : status;
}

type outcome = Solution.t outcome_of

(** {1 Sessions and the engine signature} *)

type 'best session_of = {
  advance : until:(int -> bool) -> status;
  (** Run iterations until [until] — given the iterations completed —
      holds at a boundary ([Interrupted]; a later call carries on from
      there) or the budget ends ([Complete]). *)
  outcome : unit -> 'best outcome_of;
  (** The counters and best so far; [status] is the last [advance]'s. *)
  payload : unit -> string;
  (** The driver checkpoint payload of the current boundary. *)
}
(** A run in progress.  The context's [should_stop], [time_limit] and
    [checkpoint] are not its business: {!run} applies them. *)

type session = Solution.t session_of

module type S = sig
  val name : string
  (** Registry key, as accepted by [--engine]/[--engines]. *)

  val describe : string
  (** One-line description: method and provenance in the paper. *)

  val knobs : string
  (** One-line, human-readable account of the engine's fixed knobs and
      of what one budget iteration means. *)

  val default_iterations : int
  (** The engine's traditional budget, used when the caller does not
      choose one. *)

  val start : ?payload:string -> context -> (session, string) result
  (** A fresh session, or the one a [payload] describes; [Error] is a
      one-line reason the payload does not fit the context. *)
end

type t = (module S)

val name : t -> string
val describe : t -> string
val knobs : t -> string
val default_iterations : t -> int

val start : t -> ?payload:string -> context -> (session, string) result
(** The engine's {!S.start}. *)

val run : t -> context -> outcome
(** The one run loop, and the only code that reads or writes
    checkpoint files.  It starts the session under
    [context.checkpoint]'s resume mode (a missing, corrupt, foreign or
    fingerprint-mismatched file is a one-line [Failure] under
    [Resume_required]), advances it in [every]-iteration chunks and
    writes the payload as a [REPRO-CKPT] file of kind
    {!checkpoint_kind} between chunks and once more when the stop probe
    ends the run.  The probe folds [should_stop] with [time_limit] and
    is latched.  Writes happen only at iteration boundaries, so a
    resumed run's outcome is bit-identical to the uninterrupted one. *)

(** {1 Generic driver} *)

type 'state step = {
  state : 'state;      (** working state after the iteration (a restart
                           may swap it for a fresh one) *)
  cost : float;        (** its cost *)
  accepted : bool;     (** the iteration changed the working state *)
  evaluations : int;   (** cost evaluations spent by the iteration *)
}

type 'state codec = {
  engine : string;
  (** the engine's registry name; stamped into checkpoints so a file is
      never resumed by a different engine *)
  version : int;
  (** state-format version; bump whenever [encode]'s layout changes so
      stale files are rejected with a one-line diagnostic instead of
      misparsed *)
  encode : 'state -> string;
  (** serialize the working state, including any auxiliary search
      memory the engine keeps outside the state value (incumbents,
      tabu tenure, populations).  Line-oriented text with ["%h"]
      floats, by the repo's checkpoint convention.  It closes the
      checkpoint file, so it may hold any bytes (the portfolio embeds
      its members' whole checkpoint files). *)
  decode : string -> ('state, string) result;
  (** inverse of [encode]; must also restore that auxiliary memory.
      After [decode] the engine must behave bit-identically to the run
      that produced the snapshot. *)
}
(** How a driven engine's working state crosses a process boundary.
    The driver owns everything else (counters, RNG words, best
    snapshot, wall-clock offset). *)

type 'best filing = {
  inputs : unit -> string list;
  (** the searched inputs as text; with the seed and budgets they make
      the checkpoint fingerprint (a {!Solution.t} run's: its
      application and platform) *)
  encode_best : 'best -> string;
  (** newline-terminated lines, none a bare ["best"] or ["state"] *)
  decode_best : string -> ('best, string) result;
}
(** How a driven run files its best in a checkpoint. *)

val checkpoint_kind : string
(** The {!Repro_util.Checkpoint} kind tag of driver checkpoints,
    ["dse-engine"]. *)

type ('best, 'state) snapshot = {
  iteration : int;      (** iterations completed *)
  evaluations : int;    (** cost evaluations spent *)
  accepted : int;       (** iterations that changed the state *)
  initial_cost : float;
  best_cost : float;
  elapsed : float;      (** wall seconds spent before the snapshot *)
  rng : Repro_util.Rng.t;
  best : 'best;         (** persisted through the filing *)
  state : 'state;       (** persisted through the codec *)
}
(** Everything a checkpoint holds: the driver's counters, costs, wall
    offset, RNG words and best, plus the engine's working state. *)

val encode_payload :
  'state codec -> context -> (Solution.t, 'state) snapshot -> string
(** The snapshot as a driver checkpoint payload, stamped with the
    codec's engine name and version and with a fingerprint of the
    application, platform, seed and budgets. *)

val decode_payload :
  'state codec -> context -> string ->
  ((Solution.t, 'state) snapshot, string) result
(** The inverse of {!encode_payload}; a payload from a different engine
    or codec version, or fingerprint-mismatched, is a one-line
    [Error]. *)

val payload_incumbent :
  App.t -> Platform.t -> string -> (Solution.t, string) result
(** The best solution of any driver payload, decoded against these
    inputs.  Deliberately not fingerprint-checked: a cross-engine warm
    start only needs the inputs to match. *)

val drive :
  ?payload:string ->
  codec:'state codec ->
  context ->
  init:(Repro_util.Rng.t -> 'state * float * int) ->
  step:(Repro_util.Rng.t -> iteration:int -> 'state -> 'state step) ->
  snapshot:('state -> Solution.t) ->
  (session, string) result
(** The session shared by every driven engine.  [init] builds the
    initial working state and returns it with its cost and the
    evaluations spent; the driver snapshots it as the initial best.  A
    [payload] replaces [init] ({!decode_payload}).  Each iteration of
    [advance] checks the budget, [until] and the evaluation budget,
    calls [step], keeps the accounts, snapshots new strict bests and
    emits the observation.  The initial state's cost must be finite
    (start from a feasible solution, e.g. all-software).  The best is
    filed against the context's application and platform; the loop
    itself never reads them, so {!run_driven} runs it for any best. *)

val run_driven :
  codec:'state codec ->
  filing:'best filing ->
  controls ->
  init:(Repro_util.Rng.t -> 'state * float * int) ->
  step:(Repro_util.Rng.t -> iteration:int -> 'state -> 'state step) ->
  snapshot:('state -> 'best) ->
  'best outcome_of
(** {!run} over a {!drive}n session whose best is any value: the same
    loop, checkpoint files, random stream and accounts, under
    [controls], with the payload's best section and fingerprint from
    [filing]. *)
