(** Move generation and realization (§4.2-4.3 of the paper).

    A move draws a source task [vs] and a destination task [vd] and,
    depending on the resources holding them, performs:

    - m1 — [R(vs) = R(vd)] = processor: reposition [vs] in the total
      software order (no move when the shared resource is an RC
      context);
    - m2 — different resources: migrate [vs] to the resource of [vd]
      (software ↔ hardware and context ↔ context migrations; a fresh
      context is spawned when the destination context would overflow
      the device);
    - m4-like context creation: give [vs] a brand-new context (the
      paper's resource-creation move restricted to the RC);
    - implementation selection: switch the area-time variant of a
      hardware task;
    - device selection ([m3]/[m4] restricted form): swap the platform
      for another of the catalogue, for architecture exploration.

    Every move is validated: structural invariants are preserved by
    construction, and a move whose search graph becomes cyclic (or
    whose contexts overflow) is reported as infeasible, matching §4.3.
    A reorder, context placement or context swap that would sequence
    two tasks against an application path is rejected on the
    application's closure matrix ({!Repro_taskgraph.App.closure})
    before anything is saved ({!reorder_cyclic},
    {!placement_cyclic}, {!swap_cyclic}); any other move is realized,
    and undone when the live search graph finds a cycle (one running
    through both the software chain and the context chain) or an
    overflow. *)

open Repro_arch

type config = {
  p_impl : float;
  (** probability of drawing an implementation-selection move *)
  p_new_context : float;
  (** probability of drawing a context-creation move *)
  p_swap_contexts : float;
  (** probability of exchanging two adjacent contexts in the globally
      total order of the DRLC *)
  p_to_sw : float;
  (** probability of drawing a direct hardware-to-processor migration;
      keeps the chain ergodic when no task runs in software (m2 needs a
      software destination task to exist) *)
  p_device : float;
  (** probability of drawing a device-swap move (needs a catalogue) *)
  device_catalogue : Platform.t list;
  (** candidate platforms for architecture exploration; [] = fixed *)
}

val fixed_architecture : config
(** The paper's experimental setting: architecture fixed (probability
    of resource creation/removal set to 0), 20% implementation moves,
    5% context-creation moves, 10% direct to-software migrations. *)

val exploration : Platform.t list -> config
(** Architecture exploration over a device catalogue. *)

val spatial_only : config
(** Ablation: no implementation-selection moves, no explicit
    context-creation moves — only m1/m2. *)

val draw_hw_task : Repro_util.Rng.t -> Solution.t -> int option
(** A hardware task drawn uniformly, [None] (and no draw) when every
    task runs in software.  Counts and indexes the bindings instead of
    building {!Solution.hw_tasks}, consuming exactly the [Rng.int]
    draw of [Rng.choice_list rng (Solution.hw_tasks s)]: the same task,
    the same generator state. *)

(** {1 Static cycle tests}

    Each predicate is sound: [true] means the realized move makes the
    search graph cyclic, whatever else it holds. *)

val reorder_cyclic : Solution.t -> int -> int -> bool
(** [reorder_cyclic s vs vd]: placing software task [vs] right before
    [vd] on their processor would run it after a task that reaches it,
    or before a task it reaches. *)

type placement =
  | Join of int
  (** the context of this task, or a fresh one right after it when
      full, as {!Solution.move_to_context} *)
  | Fresh_at of int
  (** a fresh context at this position, as {!Solution.insert_context} *)

val placement_cyclic : Solution.t -> int -> placement -> bool
(** [placement_cyclic s v p]: [v] placed by [p] would reach a member
    of an earlier context, or be reached from a later one. *)

val swap_cyclic : Solution.t -> int -> bool
(** [swap_cyclic s at]: a member of context [at] reaches a member of
    context [at+1], the one {!Solution.swap_contexts} would run
    first. *)

(** {1 Proposals} *)

val propose : Repro_util.Rng.t -> config -> Solution.t -> (unit -> unit) option
(** Draw, realize, and validate one move; [Some undo] on success,
    [None] when the drawn move is infeasible or void (the annealer
    counts it and retries at the next iteration). *)

val propose_kind :
  Repro_util.Rng.t -> config -> Solution.t -> Solution.move_kind ->
  (unit -> unit) option
(** Like {!propose} but restricted to one {!Solution.move_kind}: the
    same generators, targeting draws, static closure checks and
    validation as the mixed proposal, without the kind lottery.  Feeds
    the per-kind probes and the incremental-vs-rebuild test;
    [Solution.Init] never proposes. *)
