(** The racing portfolio meta-engine: several registered engines behind
    one {!Engine.S} face.

    A portfolio is described by a spec string —

    {v portfolio[:rr|race|chain][:e1+e2+...][:slice=N][:target=C] v}

    — and comes in three schedules over the same lane machinery:

    - {b round-robin} ([rr], the default): the iteration budget is
      split evenly across members and spent in interleaved slices, so
      [--engine portfolio:sa+tabu] compares like a single engine of the
      same total budget;
    - {b racing} ([race]): every member gets the {e full} budget and
      the lanes run concurrently on separate domains
      ({!Repro_util.Parallel.map_outcomes}); with [target=C] the first
      lane whose best reaches [C] wins and the losers are cancelled at
      their next iteration boundary (hedged cancellation — the slice
      quantum drops to one iteration so the latency bound is one member
      iteration);
    - {b chain}: members run to completion in order and each stage is
      warm-started ({!Engine.context}[.warm_start]) from the best
      incumbent of the stages before it (greedy seeding sa, say).

    {b Isolation.} Every lane holds its member's live
    {!Engine.session}, and one slice is one [advance] of it.  A member
    that raises or hits an armed {!Repro_util.Fault} degrades to a dead
    lane: its best-so-far (from its last completed slice) stays in the
    aggregate, the loss is logged, and the portfolio's outcome is the
    best over surviving lanes.  The run only fails when {e every} lane
    is lost before producing a boundary.  Racing slices run as the
    items of one {!Repro_util.Parallel.map_outcomes} pool, so a
    [Worker] fault index names a lane among those still racing;
    round-robin and chain slices are called directly.

    {b Determinism.} Member seeds derive from the portfolio seed
    ([seed + 65537 * lane]), slice boundaries are fixed by the spec and
    budget, racing outcomes are folded in lane order, and ties (a
    target met by several lanes in the same round) resolve to the
    lowest lane index — so a fixed spec, seed and budget give a
    bit-identical outcome for any [--jobs], modulo wall-clock fields.

    {b Checkpointing.} {!Engine.run} writes the files; no file is
    written between slices.  The payload is the driver's container
    with a ["portfolio"] codec at version 2: the driver's sections hold
    the header checks, the lane totals, costs, wall time and best
    solution, and the codec's state the canonical spec, the cursor and
    one length-framed record per lane, embedding each live member's
    payload (encoded only then) as a whole checkpoint file.  Before any
    lane has a best the container holds the all-software mapping at
    cost [infinity], and a flag restores "no best".  A slice cut short
    by a stop or a checkpoint chunk finishes on the next [advance], so
    resume replays bit-identically, as the registry-wide resume suite
    checks.  A version-1 file (the format before the shared container)
    is refused in one line under [Resume_required] and ignored with a
    warning under [Resume_if_exists]. *)

type mode = Round_robin | Race | Chain

type spec = {
  mode : mode;
  members : string list;  (** registry names, in lane order *)
  slice : int option;  (** slice quantum in member iterations *)
  target_cost : float option;  (** hedge: first lane at or under wins *)
}

val default_spec : spec
(** [rr] over [greedy+hill] — members every budget tolerates. *)

val parse_spec : string -> (spec, string) result
(** Parse a spec string.  Member lists accept both ['+'] and [','] as
    separators (so a portfolio can appear inside [--engines] lists,
    where [','] already separates engines).  Unknown members are only
    rejected by {!make} — parsing is registry-independent. *)

val canonical : spec -> string
(** The canonical spelling: registry key, [Engine.name], and the
    identity stamped into checkpoints.  The full default is
    ["portfolio"]. *)

type lane_report = {
  member : string;  (** the member engine's name *)
  state : string;
      (** ["pending"], ["running"], ["finished"], ["won"],
          ["cancelled"] or ["faulted: <reason>"] *)
  iterations : int;
  evaluations : int;
  best : float;  (** infinity when the lane never reached a boundary *)
}

val make : ?report:(lane_report array -> unit) -> spec -> (Engine.t, string) result
(** Build the engine for a spec; [Error] when a member is not
    registered (or is itself a portfolio).  [report] fires once per
    run, just before the outcome returns, with the final per-lane
    verdicts — the data behind the CLI's lane table and the
    member-isolation tests. *)

val of_spec : ?report:(lane_report array -> unit) -> string -> (Engine.t, string) result
(** [parse_spec] followed by [make]. *)

val engine : unit -> Engine.t
(** The default portfolio, for registration.  A function because the
    members must already be registered when it is built — call after
    the baseline engines are in the registry. *)

val resolve :
  ?report:(lane_report array -> unit) -> string -> (Engine.t, string) result
(** Portfolio specs build a portfolio ([report] as in {!make}),
    anything else goes to {!Engine_registry.find}. *)
