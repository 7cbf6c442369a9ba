(** Directed graphs over a fixed node set \[0, size).

    This is the structural substrate shared by application precedence
    graphs and by the search graphs the explorer evaluates: cheap edge
    insertion/removal, topological sorting, longest paths.  Graphs here
    are not required to be acyclic — [topological_order] reports
    cyclicity — but every algorithm documents its requirement. *)

type t

val create : int -> t
(** [create size] is the edgeless graph on nodes [0 .. size-1]. *)

val size : t -> int
val edge_count : t -> int
val copy : t -> t

val add_edge : t -> int -> int -> unit
(** Adds [src -> dst].  Duplicate insertions are idempotent.
    Self-loops are rejected with [Invalid_argument]. *)

val remove_edge : t -> int -> int -> unit
(** Removes [src -> dst] if present. *)

val has_edge : t -> int -> int -> bool
val succs : t -> int -> int list
val preds : t -> int -> int list
val out_degree : t -> int -> int
val in_degree : t -> int -> int

val iter_edges : (int -> int -> unit) -> t -> unit
val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val edges : t -> (int * int) list

val sources : t -> int list
(** Nodes without predecessors, in increasing id order. *)

val sinks : t -> int list
(** Nodes without successors, in increasing id order. *)

val topological_order : t -> int array option
(** Kahn's algorithm; [None] when the graph has a cycle. *)

val is_dag : t -> bool

val reachable_from : t -> int -> Repro_util.Bitset.t
(** Forward reachability set of a node (excluding the node itself
    unless it lies on a cycle through itself, which [add_edge]
    forbids). *)

val transitive_closure : t -> Repro_util.Bitset.t array
(** [closure.(i)] is the set of nodes reachable from [i] (excluding
    [i]).  Requires a DAG. *)

val longest_path :
  t -> node_weight:(int -> float) -> edge_weight:(int -> int -> float) ->
  float array
(** For a DAG, [longest_path g ~node_weight ~edge_weight] returns the
    array of completion times: [finish.(v)] is the maximum, over paths
    ending at [v], of the sum of node weights plus edge weights along
    the path.  Raises [Invalid_argument] on cyclic graphs. *)

val critical_path :
  t -> node_weight:(int -> float) -> edge_weight:(int -> int -> float) ->
  float * int list
(** Longest-path value over the whole DAG and one witness path (node
    ids in order). *)

val transitive_reduction : t -> t
(** Minimal sub-DAG with the same reachability.  Requires a DAG. *)
