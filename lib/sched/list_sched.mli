(** List-scheduling primitives.

    The fixed gene decode of {!Gene_decoder} (behind the
    genetic-algorithm baseline after Ben Chehida & Auguin, and
    multi-mode mapping) orders tasks by a priority, the HEFT-style
    upward rank that its reverse sweep computes, and schedules them in
    a precedence-consistent order.  This module provides the
    prioritized topological order, and a sort by descending priority
    that stands in for the order where the two are provably the same,
    both on flat arrays: the decoder runs them once per gene vector
    into buffers it reuses.

    {b The rank-sort identity.}  With positive times and nonnegative
    communication costs, a task's upward rank is never below a
    successor's, rounding included.  So some unordered task of the
    highest rank is always ready, and {!prioritized_topological_order}
    on upward ranks lists the tasks by non-increasing rank.  Its
    restriction to any subset of tasks whose ranks are pairwise
    distinct is therefore that subset sorted by descending rank.  The
    decoder sorts its software tasks with {!sort_descending} and keeps
    the heap for the two cases where the identity is not known to
    hold: a task does not rank strictly above its costliest successor
    path (a NaN rank, which no compare orders, fails that test), or
    two software tasks share a rank. *)

open Repro_taskgraph

type scratch
(** The ready heap, stamps and in-degree counters of
    {!prioritized_topological_order}, reusable across calls; the heap
    doubles as {!sort_descending}'s merge buffer. *)

val scratch : int -> scratch
(** Scratch for applications of up to [n] tasks. *)

val prioritized_topological_order :
  scratch -> App.t -> priority:float array -> order:int array -> unit
(** Writes into [order.(0 .. n-1)] a topological order of all tasks
    where, among ready tasks, the highest [priority] goes first.  Ties
    go to the task that became ready first: the sources in increasing
    id, then, as each task is ordered, its newly ready successors in
    increasing id.  Deterministic; allocates nothing.  The orders of
    the processor chains are its restriction to software tasks. *)

val sort_descending :
  scratch -> priority:float array -> int array -> int -> bool
(** [sort_descending s ~priority tasks count] sorts [tasks.(0 ..
    count-1)] by descending [priority], stably, and returns whether
    the sorted priorities strictly decrease: [false] on a tie or a
    NaN, where the order is some permutation.  O(count log count) at
    worst, near linear on input already almost in order.  Allocates
    nothing; [count] must not exceed the scratch's size. *)
