(** Genetic-algorithm baseline, after Ben Chehida & Auguin (CASES'02),
    the comparison point of the paper's §5.

    The GA explores spatial partitioning (and implementation selection)
    only; each individual is realized by the fixed decode of
    {!Repro_sched.Gene_decoder} — the temporal partitioning by the
    deterministic clustering pass and the software schedule by list
    scheduling on HEFT upward ranks, one partitioning and one schedule
    per spatial solution, exactly the structure the paper criticizes.
    Multi-mode mapping ([Repro_dse.Multi_mode]) decodes its shared
    genes through the same module. *)

open Repro_taskgraph
open Repro_arch
open Repro_sched

type individual = Gene_decoder.genes = {
  hw : bool array;        (** spatial partitioning gene per task *)
  impl : int array;       (** implementation-selection gene per task *)
}

val decode : App.t -> Platform.t -> individual -> Searchgraph.spec
(** {!Gene_decoder.spec}: clustering + list scheduling realization of a
    chromosome.  Hardware genes whose implementation cannot fit the
    device are treated as software. *)

val solution_of :
  App.t -> Platform.t -> individual ->
  (Repro_dse.Solution.t, string) Stdlib.result
(** The same realization as {!decode}, materialized as a first-class
    {!Repro_dse.Solution.t} (via {!Repro_dse.Solution.of_mapping}) so
    decoded individuals flow through the engine contract. *)

val fitness : App.t -> Platform.t -> individual -> float
(** Makespan of the decoded individual ({!Gene_decoder.makespan}): the
    longest path of [Searchgraph.build (decode app platform individual)],
    without building either.  [infinity] when that graph is cyclic,
    which is not rare.  A traced perfbench run measures
    [ga.infeasible_ratio] at about 0.56 on the 28-task study and
    0.93-0.94 on the 132-task [ga132] workload.  Such individuals are
    selected away; deriving both orders from one is an open ROADMAP
    item ("One rank order for the GA decoder").  Each call
    counts one evaluation for fault injection. *)

val scorer : App.t -> Platform.t -> individual -> float
(** [scorer app platform] allocates the decode tables of one run
    ({!Gene_decoder.tables}) and returns a function equal to
    [fitness app platform] that reuses them, so scoring a chromosome
    allocates only its result's box.  The tables are mutable: give each
    domain its own scorer.  {!fitness} builds fresh tables on every
    call. *)

val crossover : Repro_util.Rng.t -> individual -> individual -> individual
(** [crossover rng a b] is uniform crossover: each gene comes from [a]
    on heads of one {!Repro_util.Rng.bool} coin, else from [b].  All
    implementation genes draw first, then all hardware genes, each in
    task order ({!Repro_util.Rng.select_into} and
    {!Repro_util.Rng.select_bools_into}). *)

val mutate :
  Repro_util.Rng.t -> explore_impls:bool -> App.t -> float -> individual ->
  unit
(** [mutate rng ~explore_impls app rate i] mutates [i] in place, task by
    task: a {!Repro_util.Rng.bernoulli} [rate] draw flips the hardware
    gene, then, with [explore_impls], a second one redraws the
    implementation gene with {!Repro_util.Rng.int} at once.  The draws
    are walked from hit to hit with {!Repro_util.Rng.first_below}, which
    consumes the same stream as the per-gene loop. *)

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
