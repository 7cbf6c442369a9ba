(** Incrementally updatable longest-path state.

    The paper notes that, simulated annealing being a local search, the
    longest path "may in some cases be obtained incrementally by means
    of a Woodbury-type update formula".  This module provides that
    capability at the graph level: completion times are computed once,
    and after a local change of node weights only the affected
    downstream cone is recomputed (in topological order, stopping as
    soon as values stabilize).

    The graph is dynamic: {!insert_edge} and {!delete_edge} edit the
    underlying structure while maintaining a valid topological order
    in-place (Pearce–Kelly), so structural moves on the search graph
    are served by the same {!refresh} worklist as weight changes.
    Node and edge weights are read through the provided callbacks and
    cached: the caller mutates its own weight store and then calls
    {!refresh} with the affected nodes, which is when the cache is
    re-read. *)

open Repro_taskgraph

type t

val create :
  Graph.t -> node_weight:(int -> float) -> edge_weight:(int -> int -> float) ->
  t option
(** Builds the state and computes all completion times; [None] when the
    graph is cyclic.  The graph must only be mutated afterwards through
    {!insert_edge} / {!delete_edge}. *)

val insert_edge : t -> int -> int -> bool
(** [insert_edge t u v] adds edge [u -> v] to the graph, restoring a
    valid topological order if needed.  Returns [false] — with the
    graph and order left untouched — when the edge would create a
    cycle; returns [true] if the edge was added (or already present).
    Completion times are {e not} updated, and the new edge's cached
    weight is read now: pass [v] to {!refresh}.
    The cost is that of the search over the reordered region, not of
    the graph size. *)

val delete_edge : t -> int -> int -> unit
(** Removes edge [u -> v] (no-op if absent).  The maintained order
    stays valid; pass [v] to {!refresh} to update completion times. *)

val finish : t -> int -> float
(** Completion time of a node. *)

val finish_array : t -> float array
(** The internal completion-time store, indexed by node — a read-only
    view for bulk consumers (one blit instead of a call per node on
    every evaluation).  Mutating it corrupts the state. *)

val makespan : t -> float

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
