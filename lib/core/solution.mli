(** Mutable solution of the spatio-temporal mapping problem.

    A solution carries the four decisions of the paper's §3.3:

    - spatial partitioning: each task bound to the processor or to the
      reconfigurable circuit;
    - temporal partitioning: the hardware tasks grouped into an ordered
      list of contexts, each within the device CLB capacity;
    - software schedule: a total order of the processor tasks;
    - implementation selection: one area-time point per task (used when
      the task is in hardware).

    The transaction order on the bus follows from the longest-path
    (ASAP) semantics of the search graph.  Mutations are performed by
    {!Moves}; evaluation is cached and invalidated on mutation.  A
    large application's evaluation edits a live search graph
    ({!evaluate}); a small one's refills a flat kernel only where the
    writes since its last fill, read off {!save}'s version chain,
    changed it ({!flat_max_tasks}). *)

open Repro_taskgraph
open Repro_arch
open Repro_sched

type t

val app : t -> App.t
val platform : t -> Platform.t

(** {1 Construction} *)

val all_software : App.t -> Platform.t -> t
(** Every task on the processor, in deterministic topological order. *)

val random : Repro_util.Rng.t -> App.t -> Platform.t -> t
(** The paper's initial solution: a random number of tasks moved one by
    one to the circuit (smallest implementation), packed into contexts
    in topological order, a new context being created whenever the
    capacity of the last one is exceeded; the rest on the processor in
    a random precedence-consistent order. *)

val copy : t -> t

val of_mapping :
  App.t -> Platform.t ->
  sw_orders:int list list ->
  contexts:int list list ->
  impl:int list ->
  (t, string) result
(** Build a solution directly from mapping decisions: per-processor
    execution orders (primary first; together they must list exactly
    the tasks in no context), contexts in execution order with their
    exact member order, and one implementation index per task.  The
    constructed solution passes {!check_invariants} or an error is
    returned.  Used by the decoded baselines (GA, greedy) to express
    their answers as first-class solutions behind the common engine
    interface. *)

(** {1 Inspection} *)

val size : t -> int
val binding : t -> int -> Searchgraph.binding
(** [Hw j] uses the positional index of the context (0-based). *)

val context_id : t -> int -> int
(** An id of the context holding [v], [-1] for a software task.  Ids
    are opaque and stable while a context lives: two tasks share a
    context exactly when their ids are equal ({!encode} renumbers them,
    so nothing may depend on their values).  O(1), unlike {!binding}'s
    positional index. *)

val context_chain : t -> (int * int list) list
(** The contexts in execution order, each with its {!context_id} and
    its members — the solution's own immutable list, so reading it
    allocates nothing. *)

val impl_index : t -> int -> int

val sw_order : t -> int list
(** Execution order of the primary processor. *)

val sw_orders : t -> int list list
(** Execution orders of every processor (primary first). *)

val sw_first : t -> int -> int
(** [sw_first t p] is the first task of processor [p]'s order, [-1]
    when it runs none.  With {!sw_next}, a walk of an order that builds
    no list. *)

val sw_next : t -> int -> int
(** The task after [v] in its processor's order; [-1] at the end of the
    order and for a hardware task.  O(1). *)

val processor_index : t -> int -> int
(** Processor of a software-bound task (0 = primary); raises
    [Invalid_argument] for a hardware task. *)

val contexts : t -> int list list
(** Context members in execution order of the contexts. *)

val n_contexts : t -> int
val hw_tasks : t -> int list

val hw_count : t -> int
(** [List.length (hw_tasks t)], without building the list. *)

val nth_hw_task : t -> int -> int
(** [nth_hw_task t k] is [List.nth (hw_tasks t) k] without building the
    list; raises [Invalid_argument] unless [0 <= k < hw_count t]. *)

val context_clbs : t -> int -> int
(** CLBs used by the context at positional index [j]. *)

val spec : t -> Searchgraph.spec

val evaluate : t -> Searchgraph.eval option
(** Cached; [None] if the current order is infeasible (cyclic) or a
    context exceeds the device capacity.  The O(n+k) record is built
    on demand, so a caller that needs only the cost should read
    {!makespan}; which of the two is read first changes neither the
    result nor {!eval_stats}.

    An application of more than {!flat_max_tasks} tasks keeps the built
    search graph and its longest-path state alive inside the solution
    (a smaller one is judged by the flat pass, see {!flat_max_tasks}),
    and the graph is {e dynamic}: both the
    structure-preserving mutation ({!set_impl}) and the structural
    moves ({!reorder_sw}, {!move_to_sw}, {!move_to_context},
    {!insert_context}/{!append_context}, {!swap_contexts}) edit it in
    place, and the next evaluation refreshes only the affected
    downstream cones ({!Repro_sched.Longest_path.refresh}).  Each
    mutator emits its own exact edge delta from the software pairs
    around the positions it disturbed (read off the linked processor
    orders in O(1) per task) and from the contexts whose members,
    predecessor or predecessor's members it changed, each context
    owning the pairs into and out of its configuration node that the
    next context does not — the global canonical pair list is never
    regenerated on the move path, no processor order is walked, and
    only the member lists the move rebuilt are read — and the
    boundary-traffic
    total is patched by flipping the sum-tree terms of the edges
    incident to the moved tasks.  Every edit lands in a delta log so
    {!save}'s undo closure restores the live graph by replaying
    inverses.  A move that closes a cycle is rolled back and the
    solution reads as infeasible until the move is undone.  The live
    graph is dropped, and the next evaluation builds a new one, on
    {!replace_platform} and {!invalidate}, on an undo that does not
    match the log (out of order, or after truncation), and on a
    mutation on top of an infeasible move; copies and decoded
    solutions start without one.  Incremental results are bit-identical to a rebuild: the
    longest-path fixpoint is exact, and the comm term is a pairwise
    sum whose value is a pure function of the current boundary terms
    ({!Repro_sched.Searchgraph.Comm}).  Under [REPRO_CHECK_DELTAS]
    (see {!set_check_deltas}) every move's emitted delta is
    additionally asserted against a regenerate-and-diff reference. *)

val flat_max_tasks : int
(** Applications of at most this many tasks are judged by the flat
    pass instead: each settle brings one
    {!Repro_sched.Searchgraph.Flat} kernel per solution up to the
    solution's state (capacity judged in the same walk over the
    contexts) and runs it, bit-identical to
    {!Repro_sched.Searchgraph.evaluate} of {!spec}.  The settle
    refills only what the writes since its last fill touched: the
    path along {!save}'s version chain from the version it filled at
    to the current one names the tasks whose binding, implementation
    or chain link changed, and the contexts are re-placed only when
    the context list or an implementation changed.  A first fill, a
    copy, a platform change or a path longer than the task count
    fills everything.  The fill reads tables, not the application:
    per solution, software and transfer times and the application
    edges; per application, the hardware time and CLBs of every
    implementation ({!Repro_taskgraph.App.impl_table}).  No live graph is
    ever built for them: mutators write the solution's arrays and mark
    the cache stale, an undo is the version-chain reroot alone, and
    every evaluation (a cyclic one included) is booked in
    {!eval_stats} as a full one ([full_evals], [full_nodes] and the move
    kind's [k_full_evals]), so the [incr_*], edge, pair and comm
    counters stay 0.  Under [REPRO_CHECK_DELTAS] every refilled kernel
    is compared with a full fill into fresh arrays, and every flat
    settle is asserted against {!Repro_sched.Searchgraph.evaluate}. *)

(** {1 Evaluation statistics} *)

type move_kind =
  | Init          (** first evaluation after construction *)
  | Impl          (** implementation selection (weight-only) *)
  | Sw_reorder    (** m1: software order *)
  | Sw_migrate    (** m2/m3: task moved to a processor *)
  | Ctx_migrate   (** m2: task moved into an existing context *)
  | Ctx_create    (** m4: fresh context inserted *)
  | Ctx_swap      (** context execution order exchange *)
  | Platform_swap (** device/architecture exploration *)

val move_kinds : move_kind list
val move_kind_label : move_kind -> string

type kind_stats = {
  mutable k_full_evals : int;
  mutable k_incr_evals : int;
  mutable k_incr_nodes : int;
  mutable k_edges_edited : int;
  mutable k_pairs_emitted : int;
  mutable k_comm_patched : int;
  mutable k_pair_regens : int;
}

type eval_stats = {
  mutable full_evals : int;   (** evaluations that rebuilt the graph *)
  mutable full_nodes : int;   (** nodes evaluated across full rebuilds *)
  mutable incr_evals : int;   (** evaluations served by the fast path *)
  mutable incr_nodes : int;   (** nodes re-evaluated across refreshes *)
  mutable edges_edited : int; (** in-place edge insertions/deletions *)
  mutable pairs_emitted : int;
  (** pairs produced by the per-move delta emitters, removals and
      additions, before a pair on both sides cancels — the footprint
      of the native-delta path *)
  mutable comm_patched : int;
  (** boundary-traffic terms flipped in the comm sum tree *)
  mutable pair_regens : int;
  (** global canonical pair-list regenerations; 0 in the default mode
      (only the [REPRO_CHECK_DELTAS] cross-check regenerates) *)
  by_kind : kind_stats array; (** indexed per {!move_kind} *)
}

val eval_stats : t -> eval_stats
(** Counters shared by a solution and its copies — the measured
    locality win of the incremental path, written into the
    [dse-run --result] file and read by the perfbench probes.  They
    count one process's evaluations: every solution built from scratch,
    one decoded from a checkpoint included, starts them at zero, so
    after a resume they cover only the resumed process's work. *)

val kind_stats : eval_stats -> move_kind -> kind_stats
(** Evaluation work booked against the kind of the mutation that
    preceded it. *)

val set_check_deltas : bool -> unit
(** Toggle the paranoid delta cross-check ([REPRO_CHECK_DELTAS]): every
    structural move additionally regenerates the canonical
    sequencing-pair list and asserts the mutator-emitted edge delta
    equals the regenerate-and-diff reference (raising [Failure] on
    divergence).  Reads of the environment variable happen once at
    startup; this setter lets tests flip the mode in-process. *)

val check_deltas_enabled : unit -> bool

val makespan : t -> float
(** Makespan of a feasible solution; [infinity] when infeasible.  Read
    off the flat pass ({!flat_max_tasks}) or straight off the live
    longest-path state, without building the {!evaluate} record: this
    is what judging a move costs.  On the live state only the sinks of
    the search graph are read — the tail of each processor order and
    the members of the last context — since every other node finishes
    no later than a successor.  Bitwise equal to the record's
    makespan. *)

val check_invariants : t -> (unit, string) result
(** Structural invariants: bindings, context membership and capacity,
    software order is a permutation of the software tasks, every
    context non-empty, implementation indices in range. *)

(** {1 Mutation — used by Moves} *)

val save : t -> (unit -> unit)
(** Capture the full mutable state in O(1); the returned closure
    restores it (move undo).  The assignment and implementation arrays
    and the links of the processor orders (each a doubly linked chain
    through per-task successor and predecessor arrays) are not copied:
    every write to them is recorded on a version chain,
    [save] keeps the current version, and the undo reroots the chain at
    it, in time proportional to the writes made since.  The live search
    graph is restored by replaying the delta log backwards to the save
    point, so rejecting a structural move costs a few inverse edge
    edits rather than a rebuild.  Undo closures are one-shot and meant
    LIFO; out-of-order use still restores the exact saved state, and
    drops the live graph when an earlier undo rewrote the log below
    the save point, so the next evaluation rebuilds it. *)

val invalidate : t -> unit
(** Drop the live search graph, so the next evaluation rebuilds it from
    scratch.  Escape hatch for manual surgery on the solution — and the
    forced-rebuild twin of the incremental-vs-rebuild test. *)

val set_impl : t -> int -> int -> unit
(** Structure-preserving: updates the task's weight (and its context's
    configuration weight) in the live evaluation state. *)

val move_to_sw : ?proc:int -> t -> task:int -> before:int option -> unit
(** Detach [task] from wherever it runs (dropping its context if
    emptied) and insert it into processor [proc]'s order (default the
    primary processor) just before [before] (at the end when [None]).
    [before] must already be on that processor. *)

val move_to_context : t -> task:int -> dest:int -> unit
(** Bind [task] to the context of hardware task [dest].  When the
    destination context cannot also hold [task]'s implementation
    ({!joins_context} is false), a fresh context is spawned right after
    it instead, as in §4.3.  [task] may come from software or from
    another context. *)

val joins_context : t -> task:int -> dest:int -> bool
(** Whether the context of hardware task [dest] can also hold [task]'s
    implementation, so that {!move_to_context} joins it rather than
    spawning a fresh context; [task] must not already be in it. *)

val insert_context : t -> task:int -> at:int -> unit
(** Move m4 restricted to the reconfigurable circuit: create a fresh
    context at position [at] of the context order (0 = first), holding
    just [task] (detached from wherever it was).  [at] is clamped when
    detaching [task] emptied and removed its previous context. *)

val append_context : t -> task:int -> unit
(** [insert_context] at the end of the context order. *)

val swap_contexts : t -> at:int -> unit
(** Exchange the execution order of contexts [at] and [at+1] —
    exploring the globally total order on the DRLC. *)

val reorder_sw : t -> task:int -> before:int -> unit
(** Move m1: reposition software [task] immediately before software
    task [before]; both must sit on the same processor. *)

val replace_platform : t -> Platform.t -> unit
(** Architecture-exploration move (m3/m4 restricted to device
    selection): swap the platform; contexts exceeding the new capacity
    make the solution infeasible until repaired by further moves.  The
    new platform must have the same number of processors. *)

(** {1 Persistence} *)

val encode : t -> string
(** Line-oriented textual form of the mapping decisions (bindings,
    implementation choices, processor orders, contexts in execution
    order with their exact member order).  Context ids are renumbered
    positionally, which no move can observe, so a decoded solution
    replays the same proposal stream as the original. *)

val decode : App.t -> Platform.t -> string -> (t, string) result
(** Rebuild a solution from {!encode} output against the same
    application and platform; validates shape and
    {!check_invariants}.  Evaluation caches start cold — the exact
    longest-path refresh guarantees re-evaluation is bit-identical. *)

val pp : Format.formatter -> t -> unit
