(** Genetic-algorithm baseline, after Ben Chehida & Auguin (CASES'02),
    the comparison point of the paper's §5.

    The GA explores spatial partitioning (and implementation selection)
    only; for each individual the temporal partitioning is produced by
    the deterministic {!Clustering} pass and the software schedule by
    list scheduling on HEFT upward ranks — one partitioning and one
    schedule per spatial solution, exactly the structure the paper
    criticizes. *)

open Repro_taskgraph
open Repro_arch
open Repro_sched

type individual = {
  hw : bool array;        (** spatial partitioning gene per task *)
  impl : int array;       (** implementation-selection gene per task *)
}

val decode : App.t -> Platform.t -> individual -> Searchgraph.spec
(** Clustering + list scheduling realization of a chromosome.
    Hardware genes whose implementation cannot fit the device are
    treated as software. *)

val solution_of :
  App.t -> Platform.t -> individual ->
  (Repro_dse.Solution.t, string) Stdlib.result
(** The same realization as {!decode}, materialized as a first-class
    {!Repro_dse.Solution.t} (via {!Repro_dse.Solution.of_mapping}) so
    decoded individuals flow through the engine contract. *)

val fitness : App.t -> Platform.t -> individual -> float
(** Makespan of the decoded individual.  [infinity] when the decoded
    search graph is cyclic: the list-scheduled software order and the
    clustered context chain follow two different topological orders,
    and where they disagree the two chains close a cycle.  That is not
    rare.  A traced perfbench run measures [ga.infeasible_ratio] at
    about 0.56 on the 28-task study and 0.93-0.94 on the 132-task
    [ga132] workload.  Such individuals are selected away; deriving
    both orders from one is an open ROADMAP item ("Make the GA of [6]
    feasible by construction"). *)

val engine :
  ?population:int -> ?explore_impls:bool -> unit -> Repro_dse.Engine.t
(** An engine over generations: one budget iteration = one generation.
    Registered as ["ga"] (implementations explored, the default) and as
    ["ga-spatial"] ([~explore_impls:false]: every individual keeps the
    smallest implementation, the spatial-partitioning-only GA closest
    to [6]'s published description).  [population] defaults to 300,
    the size [6] quotes; crossover 0.9, per-gene mutation 0.02,
    tournament 3 and elite 2 are fixed.  The seed and generation budget
    come from the engine context; the traditional budget is 120
    generations. *)
