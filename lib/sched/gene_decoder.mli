(** The fixed decode of a spatial gene vector into one schedule, after
    Ben Chehida & Auguin (CASES'02): temporal partitioning by the
    deterministic clustering pass of {!Clustering} (a hardware gene
    whose implementation cannot fit the device stays in software), then
    the software order by list scheduling on HEFT upward ranks
    ({!List_sched}).  One partitioning and one schedule per spatial
    solution: exactly the structure the paper criticizes.

    The decode runs in two sweeps over the topological order: a forward
    one that clusters and sets each task's time on its resource, and a
    reverse one that sets each edge's delay (its transfer time where it
    crosses HW/SW) and each task's upward rank.

    The software order is the software tasks sorted by descending rank,
    which is the list scheduler's order whenever every rank is strictly
    above its successors' and no two software tasks share a rank (the
    rank-sort identity in {!List_sched}).  Where either check fails the
    list scheduler's heap runs and its software restriction is used,
    so the order is always the heap's.

    Two searches decode their genes here: the genetic-algorithm
    baseline ([Repro_baseline.Ga]) on the whole application, and
    multi-mode mapping ([Repro_dse.Multi_mode]) on each mode's
    restriction of the shared genes. *)

open Repro_taskgraph
open Repro_arch

type genes = {
  hw : bool array;  (** spatial partitioning gene per task *)
  impl : int array;  (** implementation-selection gene per task *)
}
(** One gene of each kind per task.  A hardware gene's implementation
    index must be in range for its task: an index past the task's
    implementations raises [Invalid_argument]. *)

val genes_to_string : genes -> string
(** The genes as checkpoints hold them: the hardware genes as one word
    of ['0']/['1'], then one word per implementation index. *)

val genes_of_words : Task.t array -> string list -> genes option
(** The inverse of {!genes_to_string} split at spaces, for these
    tasks; [None] on any other word list, an implementation index out
    of range included. *)

val spec : App.t -> Platform.t -> genes -> Searchgraph.spec
(** The decoded schedule as a single-processor search-graph spec.  The
    spec reads [genes.impl] when evaluated, so do not mutate it while
    the spec is in use. *)

type tables
(** A run's decode tables: the per-run parts (software times on
    processor 0, each edge's transfer time) and every buffer the decode
    and the pass rewrite.  Mutable: give each domain its own. *)

val tables : App.t -> Platform.t -> tables

val makespan : tables -> genes -> float
(** Makespan of the decoded gene vector without building the spec: the
    same decode written straight into {!Searchgraph.Flat}'s arrays,
    then the pass {!Searchgraph.evaluate} runs on [spec app platform
    genes]; the tests check both against [Graph.longest_path] over
    {!Searchgraph.build}.  [infinity] when that graph is cyclic: the
    list-scheduled software order and the clustered context chain
    follow two different topological orders, and where they disagree
    the two chains close a cycle.  Allocates nothing but the box of its
    result. *)
