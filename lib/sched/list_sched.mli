(** List-scheduling primitives.

    The fixed gene decode of {!Gene_decoder} (behind the
    genetic-algorithm baseline after Ben Chehida & Auguin, and
    multi-mode mapping) orders tasks by a priority and schedules them
    in a precedence-consistent order.  This module provides the classic
    priority (HEFT-style upward rank) and the prioritized topological
    order, both on flat arrays: the decoder runs them once per gene
    vector into buffers it reuses. *)

open Repro_taskgraph

val upward_rank :
  App.t -> time:float array -> comm:float array -> rank:float array -> unit
(** [upward_rank app ~time ~comm ~rank] writes into [rank] the HEFT
    upward rank: for each task, the longest remaining path to a sink
    counting node times [time.(v)] and edge communication costs
    [comm.(i)], where [i] is the edge's index in {!App.edges}. *)

type scratch
(** The ready heap, stamps and in-degree counters of
    {!prioritized_topological_order}, reusable across calls. *)

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
