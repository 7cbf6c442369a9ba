(** Application model: an acyclic precedence graph G = <V, E> whose
    nodes are {!Task.t} and whose edges carry the amount of data
    transferred (the paper's [qij]). *)

type edge = {
  src : int;
  dst : int;
  kbytes : float;  (** data transferred along the edge, kilobytes *)
}

type index
(** The structure derived from the precedence graph once, at
    construction: the indexed edge array, per-task in-edges and
    incident edges, the topological order and the transitive closure.
    Read it through the accessors below. *)

type t = private {
  name : string;
  tasks : Task.t array;
  graph : Graph.t;                   (** precedence structure *)
  index : index;
  deadline : float option;           (** performance constraint, ms *)
}

val make :
  name:string -> ?deadline:float -> tasks:Task.t list -> edges:edge list ->
  unit -> t
(** Builds and validates an application: task ids must be exactly
    [0 .. n-1], edges must reference existing tasks, data amounts must
    be finite and non-negative, a deadline finite and positive, and the
    precedence graph must be acyclic.  Raises [Invalid_argument]
    otherwise. *)

val size : t -> int
val task : t -> int -> Task.t
val kbytes : t -> int -> int -> float
(** Data carried by an edge; 0 when the edge does not exist (including
    out-of-range endpoints). *)

val edges : t -> edge list
(** Every edge with its data, in {!Graph.edges} order of [graph]:
    source ascending, then that source's successor list.  The list is
    built once; the order is the leaf order of the communication sum
    tree ({!Repro_sched.Searchgraph.comm_terms}), so it is part of the
    bit-identity contract of every evaluator. *)

val edge_count : t -> int

val edge : t -> int -> edge
(** [edge t i] is the [i]-th element of [edges t]. *)

val edge_weight : t -> (int -> float) -> int -> int -> float
(** [edge_weight t w] is the edge-weight function that gives [w i] for
    the application edge [src -> dst] of index [i] in [edges], and 0
    for any other pair (a non-edge, or a node beyond the tasks, such as
    a configuration node of a search graph).  Apply it to [t] and [w]
    once: the function returned scans [dst]'s in-edges directly. *)

val iter_incident : t -> int -> (int -> unit) -> unit
(** [iter_incident t v f] applies [f] to the index in [edges] of each
    edge entering or leaving task [v], in increasing order. *)

val topological_order : t -> int array
(** {!Graph.topological_order} of [graph], computed once by {!make};
    each call returns a fresh copy.  Among the orders the edges allow,
    the one returned depends on the order in which the edges were
    given: {!Graph.add_edge} puts each new successor in front of the
    earlier ones, so a fan [0 -> {1, 2, 3}] listed forward gives
    [[0; 1; 2; 3]] and listed backward [[0; 3; 2; 1]].  The edge order
    of an application (of a [.tg] file too) is therefore part of its
    input: it sets the tie order of the GA decode
    ([Repro_sched.Gene_decoder]) and of the all-software warm start. *)

val topo : t -> int array
(** The array behind {!topological_order}, shared rather than copied,
    for per-evaluation loops; the same edge-order dependence.  Read it;
    never write it. *)

val closure : t -> Closure.t
(** Reachability between the tasks of [graph] ({!Closure.of_graph}),
    computed once by {!make} right after its acyclicity check.  The
    graph never changes, so every solution of the application, on any
    domain, reads this one matrix; nothing writes it after {!make}. *)

type adjacency = private {
  start : int array;
  node : int array;
  edge : int array;
}
(** Per-task edge lists as int slices of flat arrays: task [v]'s slots
    are [start.(v) .. start.(v+1) - 1]; slot [k] holds the edge's
    other endpoint [node.(k)] and its index [edge.(k)] in {!edges}.
    Built once by {!make} and shared: read it; never write it. *)

val in_edges : t -> adjacency
(** Each task's predecessors, in {!edges} order.  A task's in-degree is
    [start.(v+1) - start.(v)]. *)

val out_edges : t -> adjacency
(** Each task's successors, in increasing task id. *)

type impl_table = private {
  first : int array;
  hw_time : float array;
  clbs : int array;
}
(** Every task's implementations as flat arrays: implementation [i] of
    task [v] is slot [first.(v) + i], with its hardware time
    [hw_time] and its CLBs [clbs] ({!Task.impl}).  Built once by
    {!make} and shared: read it; never write it. *)

val impl_table : t -> impl_table

val total_sw_time : t -> float
(** Execution time of the all-software solution (tasks are sequential
    on the single processor, no communication cost). *)

val sw_critical_path : t -> float
(** Longest path using software times only — an idealized
    infinite-resource lower bound for software execution. *)

val hw_critical_path : t -> float
(** Longest path using each task's fastest hardware implementation and
    no communication or reconfiguration cost — an optimistic lower
    bound on any mapping. *)

val parallelism : t -> float
(** [total_sw_time / sw_critical_path]: average width of the graph. *)

val validate : t -> (unit, string) result
(** Re-checks all construction invariants (used by property tests). *)

val pp_summary : Format.formatter -> t -> unit
