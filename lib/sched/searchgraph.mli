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
    the single crossing predicate behind {!evaluate}'s [comm] and
    [Solution]'s flat fill. *)

val crossing : spec -> int -> int -> bool
(** [crossing spec u v] iff a transfer u → v goes through the shared
    memory (the endpoints' {!resource_code}s differ). *)

(** Boundary-traffic total as a balanced pairwise sum: one fixed
    association over the per-edge terms, so the total is a pure
    function of the terms. *)
module Comm : sig
  type t

  val create : float array -> t
  (** Build the sum tree over per-edge terms (index = position in
      [App.edges] order). *)

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
    prev_sw : int array;
    (** per task: chain predecessor, or -1; read by {!pass_from} only *)
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
    position : int array;
    (** per node, after {!pass_from}: its slot in [order] *)
    prefix : float array;
    (** per slot, after {!pass_from}: the largest finish up to it *)
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

  val pass_from : t -> int -> lo:int -> hi:int -> bool
  (** [pass_from k p ~lo ~hi] is {!pass} that also records [position]
      and [prefix], restarted at slot [p] of the last such pass's
      order.  [p = 0] runs the whole {!pass}.  Otherwise its caller
      vouches that no node before slot [p] changed since that pass:
      not its execution or configuration time, not its set of
      in-edges, not the weight of one of them; and that every edge
      added since runs forward in the order or has both ends in the
      slots [lo, hi] ([lo > hi]: no window).  Then every node before
      [p] keeps its finish time, no edge enters the window from a
      later slot, and any cycle lies in the window.  The nodes from
      [p] on are taken in the old order, each from its in-edges, but
      those of the window, which Kahn's algorithm re-sorts: the same
      times, makespan and verdict as {!pass}, bit for bit, since a
      maximum is exact in any order.  After a cyclic pass the order
      and [position] are those of the last acyclic one, and the times
      from slot [p] on are not finish times: the next call must start
      at [p] or before (at 0 when [p] was 0), and at 0 after a change
      of [n_contexts]. *)
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
