(** The fixed decode of a spatial gene vector into one schedule, after
    Ben Chehida & Auguin (CASES'02): one temporal partitioning by a
    deterministic clustering pass, then one software order by list
    scheduling on HEFT upward ranks.  One partitioning and one schedule
    per spatial solution: exactly the structure the paper criticizes,
    and its concurrent exploration removes.

    The decode runs in two sweeps over the topological order.  The
    forward one clusters: it walks the tasks and packs each hardware
    task into the current context until the device capacity would be
    exceeded, then opens a new context (a hardware gene whose
    implementation cannot fit the device stays in software); it also
    sets each task's time on its resource.  The reverse one sets each
    edge's delay (its transfer time where it crosses HW/SW) and each
    task's upward rank.

    The software order is the software tasks, taken in topological
    order, sorted stably by descending rank.  Times are positive and
    transfer times nonnegative, so a task's rank is never below a
    successor's, rounding included; and ties keep their topological
    positions.  So the sorted order respects precedence: it is the
    list scheduler's order on these ranks, ties going to the earlier
    task in the topological order.

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
