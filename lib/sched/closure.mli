(** Incrementally maintained transitive closure.

    The paper rejects moves that would create a cycle, "detectable in
    O(1) operations on the associated transitive closure matrix".  This
    module provides that matrix: a Boolean reachability matrix kept
    up to date under edge insertion (Italiano-style propagation).
    Deletions invalidate the matrix; rebuild with {!of_graph}. *)

open Repro_taskgraph

type t

val of_graph : Graph.t -> t
(** Closure of a DAG.  Raises [Invalid_argument] on cyclic input. *)

val reaches : t -> int -> int -> bool
(** [reaches t u v] is [true] iff there is a non-empty path u -> v.
    O(1). *)

val add_edge : t -> int -> int -> unit
(** Registers a new edge and updates reachability.  Raises
    [Invalid_argument] if the edge closes a cycle: if [u = v] or
    [reaches t v u], both O(1) to check first. *)

val descendants : t -> int -> Repro_util.Bitset.t
(** Reachability row (do not mutate). *)
