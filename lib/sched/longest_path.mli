(** Longest path of a fixed DAG, recomputed locally after weight
    changes.

    The paper notes that, simulated annealing being a local search, the
    longest path "may in some cases be obtained incrementally by means
    of a Woodbury-type update formula".  This module is that idea at
    the graph level: completion times are computed once, and after a
    change of node or edge weights only the affected downstream cone is
    recomputed (in topological order, stopping as soon as values
    stabilize).  The graph itself never changes.

    No evaluator uses it: a solution's evaluation restarts
    {!Repro_sched.Searchgraph.Flat}'s pass at its first changed node
    instead.  It stays as a static reference of the cone refresh,
    which the performance benchmark times against a full
    recomputation.

    Node and edge weights are read through the provided callbacks and
    cached: the caller mutates its own weight store and then calls
    {!refresh} with the affected nodes, which is when the cache is
    re-read.  Every edge is listed once in its target's in-slice (with
    its cached weight) and once in its source's out-slice; the
    {!refresh} worklist is a forward sweep of a bitmap with one bit per
    topological position, popping the lowest queued position in
    constant time. *)

open Repro_taskgraph

type t

val create :
  Graph.t -> node_weight:(int -> float) -> edge_weight:(int -> int -> float) ->
  t option
(** Builds the state and computes all completion times; [None] when the
    graph is cyclic.  The graph is read once, here: the state copies its
    edges into its own slices, leaving the graph as it was. *)

val finish : t -> int -> float
(** Completion time of a node. *)

val finish_array : t -> float array
(** The internal completion-time store, indexed by node — a read-only
    view for bulk consumers.  Mutating it corrupts the state. *)

val refresh : t -> int list -> unit
(** [refresh t dirty] re-reads the weights of the [dirty] nodes (and of
    their incoming edges) and propagates changes through their
    downstream cones.  Nodes whose completion time is unaffected are
    not touched.  The weights of nodes not in [dirty] — and of their
    incoming edges — are {e not} re-read, even where the cone passes
    through them: every node whose weight or in-edge weight changed
    must be listed. *)

val recompute : t -> unit
(** Full recomputation, re-reading every weight (reference semantics
    for tests/benches). *)

val touched_last_refresh : t -> int
(** Number of nodes re-evaluated by the last {!refresh} — exposed to
    measure the locality win. *)
