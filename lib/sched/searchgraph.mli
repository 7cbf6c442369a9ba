(** Search-graph construction and solution evaluation.

    A candidate solution (spatial partitioning + temporal partitioning
    + software order) is evaluated by building the paper's *search
    graph* G' = <V, E ∪ Esw ∪ Ehw>:

    - the application precedence edges E, weighted by the bus transfer
      time when they cross the processor/circuit boundary;
    - software sequentialization edges Esw chaining the processor tasks
      in their chosen total order (zero weight);
    - context sequentialization edges Ehw realizing the globally total,
      locally partial order of the reconfigurable circuit.  Each
      context k is represented by a configuration node of duration
      [tR × nCLB(context k)]; it must wait for all members of context
      k-1 and precedes all members of context k.  The configuration
      node of the first context gives the *initial* reconfiguration
      time.

    The system execution time is the longest path of this DAG; a
    solution whose search graph is cyclic is infeasible. *)

open Repro_taskgraph
open Repro_arch

type binding = Sw | Hw of int | On_asic of int
(** Spatial assignment of a task: software (on one of the platform's
    processors — which one is given by [proc_of]), context [c] of the
    reconfigurable circuit, or the [a]-th ASIC of the platform.  An
    ASIC is the paper's partial-order resource: its tasks execute under
    the task-graph precedences alone — no sequentialization edges, no
    capacity bound, no reconfiguration — using their selected hardware
    implementation times. *)

type spec = {
  app : App.t;
  platform : Platform.t;
  binding : int -> binding;       (** per task id *)
  impl_choice : int -> int;       (** per task id: index into its impls *)
  sw_order : int list;            (** primary-processor tasks, in order *)
  contexts : int list list;       (** context k = members (any order) *)
  proc_of : int -> int;
  (** processor index (0-based) of a software-bound task; tasks in
      [sw_order] must map to 0, tasks of [extra_sw_orders.(k)] to
      [k+1].  Software tasks on different processors communicate
      through the shared memory like a HW/SW crossing. *)
  extra_sw_orders : int list list;
  (** execution orders of the additional processors (index 1
      upwards); [[]] for the single-processor systems of the paper's
      experiments *)
}

val single_processor_spec :
  app:App.t -> platform:Platform.t -> binding:(int -> binding) ->
  impl_choice:(int -> int) -> sw_order:int list -> contexts:int list list ->
  spec
(** Convenience constructor for the paper's 1-processor + 1-DRLC
    setting ([proc_of] constant 0, no extra orders). *)

type eval = {
  makespan : float;          (** longest path = total execution time, ms *)
  initial_reconfig : float;  (** configuration time of the first context *)
  dynamic_reconfig : float;  (** sum over subsequent contexts *)
  comm : float;              (** total boundary-crossing transfer time *)
  n_contexts : int;
  finish : float array;      (** per search-graph node; tasks first,
                                 then one node per context *)
}

val exec_time : spec -> int -> float
(** Execution time of a task under its binding and implementation
    choice. *)

val context_clbs : spec -> int list -> int
(** CLBs occupied by a context (sum over members of the chosen
    implementation). *)

val resource_code : (int -> binding) -> (int -> int) -> int -> int
(** [resource_code binding proc_of v] collapses a task's resource into
    one integer: software on processor p is [-(p+1)], the
    reconfigurable circuit is [0], the a-th ASIC is [a+1].  A transfer
    crosses the shared memory exactly when the endpoint codes differ —
    the single crossing predicate behind {!evaluate}'s [comm] and [Solution]'s
    incrementally patched boundary-traffic total. *)

val crossing : spec -> int -> int -> bool
(** [crossing spec u v] iff a transfer u → v goes through the shared
    memory (the endpoints' {!resource_code}s differ). *)

(** Boundary-traffic total as a balanced pairwise sum.  The total is a
    pure function of the current per-edge terms under one fixed
    association, so updating a leaf ({!Comm.set}) and reading the root
    yields exactly the bits a from-scratch {!Comm.create} over the same
    terms would — the property that lets [Solution] patch the comm term
    per move while staying bit-identical to a rebuild. *)
module Comm : sig
  type t

  val create : float array -> t
  (** Build the sum tree over per-edge terms (index = position in
      [App.edges] order). *)

  val get : t -> int -> float
  val set : t -> int -> float -> unit
  (** Replace one term and recompute its O(log m) ancestor chain. *)

  val total : t -> float
end

val comm_terms :
  platform:Platform.t -> app:App.t -> crossing:(int -> int -> bool) ->
  float array
(** Per-application-edge boundary terms in [App.edges] order: the
    transfer time when the edge crosses under [crossing], 0 otherwise.
    [Comm.total (Comm.create (comm_terms ...))] is the [comm] field of
    {!evaluate}; it depends only on bindings and processor
    assignments, not on implementation choices. *)

(** {2 Sequentialization-pair emitters}

    Every Esw/Ehw pair of the search graph has exactly one owner: an
    Esw pair belongs to the adjacency of its endpoints in one
    processor's order; an Ehw pair [(c_j, v)] belongs to context [j]
    alone ({!ehw_intra_pairs}); the pairs into [c_j] from the previous
    context — [(c_{j-1}, c_j)] and [(v, c_j)] per member [v] of context
    [j-1] — belong to the adjacent context pair ({!gtlp_pairs}).  The
    families are mutually disjoint, so the canonical list is
    duplicate-free, and a mutator obtains the exact pair delta of a
    move from the owners its footprint touches alone. *)

val ehw_intra_pairs : cfg:int -> int list -> (int * int) list
(** Pairs owned by one context: its configuration node [cfg] before
    each member. *)

val gtlp_pairs :
  prev_cfg:int -> prev_members:int list -> cfg:int -> (int * int) list
(** Pairs owned by an adjacent context pair: the configuration chain
    edge [(prev_cfg, cfg)] and [(v, cfg)] for each member of the
    earlier context — the globally-total local order of the DRLC. *)

val ehw_pairs : cfg:(int -> int) -> int list list -> (int * int) list
(** The Ehw context-sequentialization edges for the given context list,
    with configuration-node ids supplied by [cfg] (positional index →
    node id), in the exact order {!build} inserts them: intra pairs of
    context 0, then per adjacency its GTLP pairs followed by the next
    context's intra pairs — the concatenation of the per-class
    emitters. *)

val sequencing_pairs :
  cfg:(int -> int) ->
  sw_order:int list ->
  extra_sw_orders:int list list ->
  contexts:int list list ->
  (int * int) list
(** All Esw ∪ Ehw pairs in {!build}'s emission order.  The incremental
    evaluator regenerates this list only in its [REPRO_CHECK_DELTAS]
    paranoid mode, to assert the mutator-emitted deltas against a
    regenerate-and-diff reference. *)

val build : spec -> Graph.t * (int -> float) * (int -> int -> float)
(** The raw search graph with its node- and edge-weight functions
    (tasks [0..n-1], then context configuration nodes): the reference
    the evaluators below match bit for bit, which they never build. *)

(** The one pass behind {!evaluate}, {!evaluate_serialized}, {!schedule}
    and the GA decoder: Kahn's algorithm over the graph {!build} would
    construct, given as arrays.  Node [v < n] is task [v], node [n + j]
    context [j]'s configuration.  The FIFO is seeded in id order, and a
    popped node relaxes its out-edges in {!build}'s insertion order
    (application edges in [App.edges] order, the chain successor, the
    Ehw pairs): the pop order is [Graph.topological_order]'s on the
    built graph when no chain link repeats an application edge (the
    spec evaluators leave such links out; the times do not change). *)
module Flat : sig
  type t = {
    app : App.t;
    dst : int array;  (** per application edge ([App.edges] order) *)
    exec : float array;  (** per task: execution time *)
    weight : float array;  (** per application edge: transfer delay *)
    next_sw : int array;  (** per task: chain successor, or -1 *)
    context : int array;  (** per task: context position, or -1 *)
    ctx_start : int array;
    (** context [j] is [ctx_member.(ctx_start.(j) .. ctx_start.(j+1)-1)] *)
    ctx_member : int array;
    cfg_time : float array;  (** per context: configuration time *)
    mutable n_contexts : int;
    indegree : int array;
    time : float array;  (** per node, after {!pass}: finish time *)
    order : int array;  (** the FIFO, after {!pass}: the pop order *)
    mutable queued : int;
    mutable makespan : float;  (** after {!pass}: the largest finish *)
  }

  val create : App.t -> contexts:int -> members:int -> t
  (** Buffers for up to [contexts] contexts holding [members] tasks in
      all; every input array starts empty (no link, no context). *)

  val pass : ?bus:int array * float array -> t -> bool
  (** The pass over the first [n + n_contexts] nodes; [false] when the
      graph is cyclic.  [bus] gives the §3.3 bus: the crossing edges in
      transaction order, each leaving tasks in pop order, and each
      application edge's transaction time.  A transaction starts once
      its source and the previous one have finished; its destination
      starts no earlier than its end.  Allocates nothing. *)
end

val evaluate : spec -> eval option
(** One {!Flat.pass}: [Graph.longest_path] over {!build}, or [None] when
    the search graph is cyclic (infeasible order).  Boundary-crossing
    transfers are edge delays; concurrent transactions do not contend
    for the bus.  [comm] is the {!Comm} sum of {!comm_terms}. *)

val evaluate_serialized : spec -> eval option
(** Like {!evaluate} but with the paper's §3.3 transaction model made
    explicit: every boundary-crossing transfer becomes a bus
    transaction, and all transactions execute under a total order on
    the shared medium (one at a time), sorted by the positions of
    (source, destination) in {!evaluate}'s pop order, so consistent
    with the task execution order: a spec feasible for {!evaluate} is
    feasible here, with a makespan at least as large.  A second pass
    runs the bus.  [comm] is a left fold in transaction order. *)

val schedule : spec -> (float * float) array option
(** Start/finish times per task from one {!Flat.pass} (ASAP under the
    longest-path semantics; start is finish minus {!exec_time});
    [None] when infeasible. *)
