(** Transitive closure of an application's precedence graph.

    The paper rejects moves that would create a cycle, "detectable in
    O(1) operations on the associated transitive closure matrix".  This
    module provides that matrix: a Boolean reachability matrix over the
    tasks.  The precedence graph never changes during a search, so the
    matrix is static: {!App.make} builds it once and every solution of
    the application reads it ({!App.closure}). *)

type t

val of_graph : Graph.t -> t
(** Closure of a DAG ({!Graph.transitive_closure}).  Raises
    [Invalid_argument] on cyclic input. *)

val reaches : t -> int -> int -> bool
(** [reaches t u v] is [true] iff there is a non-empty path u -> v.
    O(1).  Raises [Invalid_argument] when [u] or [v] is not a node. *)
