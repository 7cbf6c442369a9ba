(** Multi-mode mapping (toward the conclusion's "systems described by
    multiple models of computation").

    A mode-based system (CFSM-style control around dataflow) runs one
    *mode* at a time: each mode is a precedence graph over a subset of
    a global task set, with its own real-time constraint.  Hardware is
    synthesized once, so the spatial partitioning and the
    implementation selection are shared across modes, while temporal
    partitioning and schedules are per-mode.

    The explorer anneals over the shared decisions.  Each candidate is
    realized per mode by the GA baseline's fixed decode,
    {!Repro_sched.Gene_decoder}, on the mode's restriction of the
    shared genes (the per-mode refinement that the single-mode explorer
    performs with moves is left deterministic here, keeping the search
    space the shared genes).  A branching mode can decode to a cyclic
    search graph, as the GA's chromosomes do; such a candidate takes a
    large penalty instead of a slack. *)

open Repro_taskgraph
open Repro_arch
open Repro_sched

type mode = {
  mode_name : string;
  edges : App.edge list;   (** precedences among [members] *)
  members : int list;      (** global task ids active in this mode *)
  deadline : float;        (** per-activation constraint, ms *)
}

type problem

val make_problem :
  name:string -> tasks:Task.t list -> modes:mode list -> problem
(** Validates: at least one mode, members within range, every mode's
    restriction acyclic.  Task ids are global (0..n-1 over [tasks]). *)

type assignment = Gene_decoder.genes = {
  hw : bool array;    (** shared spatial partitioning, per global task *)
  impl : int array;   (** shared implementation selection *)
}

type mode_result = {
  mode : mode;
  spec : Searchgraph.spec;
  eval : Searchgraph.eval;
  meets : bool;
}

type result = {
  assignment : assignment;
  per_mode : mode_result list;
  worst_slack_ratio : float;
  (** min over modes of (deadline - makespan) / deadline; >= 0 iff
      every mode meets its constraint *)
  iterations_run : int;
  wall_seconds : float;
  (** the annealing run's, on the monotonic clock, across resumes *)
  status : Engine.status;
  (** [Interrupted] when the stop probe or the time limit ended the
      run; the assignment is still the best seen so far *)
}

val realize :
  problem -> Platform.t -> assignment -> (mode * Searchgraph.spec) list
(** Deterministic decode of the shared assignment in every mode.  An
    implementation index out of range for a hardware task raises
    [Invalid_argument]. *)

val explore :
  ?seed:int -> ?iterations:int -> ?time_limit:float ->
  ?should_stop:(unit -> bool) -> ?observe:(Engine.probe -> unit) ->
  ?checkpoint:Engine.checkpoint -> problem -> Platform.t -> result
(** Anneal the shared assignment to maximize the worst slack ratio
    (all-modes feasibility first, margin second).  Defaults: seed 1,
    [iterations] 20000 moves in all, warmup included, split by
    {!Repro_anneal.Annealer.for_budget}.

    The run keeps the engine contract ({!Engine.run_driven}):
    [should_stop] and [time_limit] end it at an iteration boundary with
    status [Interrupted] and the best so far; [observe] sees every
    move, warmup included; [checkpoint] saves it (engine
    ["multi-mode"]: the chain and the genes) and resumes it bit for
    bit, refusing with one line a file taken on another problem,
    platform, seed or budget. *)
