open Repro_taskgraph
open Repro_arch
open Repro_sched
module Rng = Repro_util.Rng

(* The move vocabulary, for attribution of evaluation work: every
   mutator stamps the solution with the kind of the last mutation, and
   the next evaluation books its cost (full vs incremental, nodes
   touched, edges edited) against that kind. *)
type move_kind =
  | Init
  | Impl
  | Sw_reorder
  | Sw_migrate
  | Ctx_migrate
  | Ctx_create
  | Ctx_swap
  | Platform_swap

let move_kinds =
  [ Init; Impl; Sw_reorder; Sw_migrate; Ctx_migrate; Ctx_create; Ctx_swap;
    Platform_swap ]

let move_kind_label = function
  | Init -> "init"
  | Impl -> "impl"
  | Sw_reorder -> "sw_reorder"
  | Sw_migrate -> "sw_migrate"
  | Ctx_migrate -> "ctx_migrate"
  | Ctx_create -> "ctx_create"
  | Ctx_swap -> "ctx_swap"
  | Platform_swap -> "platform"

let kind_index = function
  | Init -> 0
  | Impl -> 1
  | Sw_reorder -> 2
  | Sw_migrate -> 3
  | Ctx_migrate -> 4
  | Ctx_create -> 5
  | Ctx_swap -> 6
  | Platform_swap -> 7

let n_kinds = 8

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
  mutable full_evals : int;
  mutable full_nodes : int;
  mutable incr_evals : int;
  mutable incr_nodes : int;
  mutable edges_edited : int;
  mutable pairs_emitted : int;
  mutable comm_patched : int;
  mutable pair_regens : int;
  by_kind : kind_stats array;
}

let fresh_stats () =
  {
    full_evals = 0;
    full_nodes = 0;
    incr_evals = 0;
    incr_nodes = 0;
    edges_edited = 0;
    pairs_emitted = 0;
    comm_patched = 0;
    pair_regens = 0;
    by_kind =
      Array.init n_kinds (fun _ ->
          {
            k_full_evals = 0;
            k_incr_evals = 0;
            k_incr_nodes = 0;
            k_edges_edited = 0;
            k_pairs_emitted = 0;
            k_comm_patched = 0;
            k_pair_regens = 0;
          });
  }

let kind_stats stats kind = stats.by_kind.(kind_index kind)

(* Int-typed list lookup for the move path: the polymorphic
   [List.assoc] pays a generic compare per cell. *)
let rec assoc_int (x : int) = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if x = k then v else assoc_int x rest

(* One entry of the incremental state's delta log.  Every mutation of
   the live search graph, its weights, the cached pair list or the
   boundary-traffic total is recorded here, so an undo closure can
   replay the inverse ops (LIFO) instead of forcing a rebuild. *)
type op =
  | W of int * float * float       (* node, old weight, new weight *)
  | E_add of int * int
  | E_del of int * int
  | Comm_set of int * float        (* app-edge index, old boundary term *)
  | Pairs of int list * bool       (* old cache (sorted, packed u·2n+v)
                                      and whether it was fresh *)
  | Touch of int list              (* nodes whose edge weights changed *)
  | Clbs of int * int              (* context id, old CLB total *)

(* Incremental-evaluation state: a live search graph over n task nodes
   plus n configuration nodes, held by its longest-path state [lp]
   alone (which owns the adjacency, edited in place), and the
   bookkeeping that turns a structural mutation into an edge-delta
   set.  A context's id is in [0, n) and its configuration node is
   [n + id]; the nodes of free ids stay isolated (no edges, weight 0)
   and are excluded from the canonical evaluation.

   Each mutator emits its own exact edge delta from the pair emitters
   of only the chains, contexts and context adjacencies it touched
   (see [native_resync]); the boundary-traffic total [comm] is a
   pairwise sum tree, one leaf per application edge in {!App.edges}
   order, whose terms are flipped for the edges incident to rebound
   tasks ({!App.iter_incident}).  [pairs] is a verification artifact
   only: in [REPRO_CHECK_DELTAS] paranoid mode it caches the sorted
   packed (u·2n+v) canonical pair list so every move's emitted delta
   can be asserted against a regenerate-and-diff reference
   ([pairs_fresh] tracks whether the cache is current — default-mode
   moves stop maintaining it).

   [clbs] holds each live context's CLB total (0 for a free id) and
   [over] counts the contexts above the device's [limit], so a settle
   judges capacity without re-summing a member list.

   [desync] flags a move whose sequencing contradicts the application
   precedences (infeasible until undone).  A state that can no longer
   be trusted is dropped ([t.incr <- None]) and the next evaluation
   builds a new one.  The stamp arrays belong to the one solution that
   owns this state: restarts anneal on several domains, so nothing here
   may be shared between solutions. *)
type incr = {
  lp : Longest_path.t;
  weights : float array;
  mutable pairs : int list;
  mutable pairs_fresh : bool;
  comm : Searchgraph.Comm.t;
  around : int array;  (* task -> the last stamp that visited it *)
  mutable stamp : int;  (* the last stamp handed out *)
  ctx_seen : int array;
  (* context id -> the stamp of the last pre-move list holding it, with
     its members there and its predecessor's id (-1 for the first) *)
  ctx_members : int list array;
  ctx_pred : int array;
  mutable log : op array;
  mutable log_len : int;
  mutable epoch : int;             (* bumped when the log is truncated *)
  mutable dirty : int list;
  mutable desync : bool;
  clbs : int array;
  mutable over : int;
  limit : int;
}

(* Paranoid cross-checking: regenerate the canonical pair list on every
   structural move and assert the mutator-emitted delta equals the
   regenerate-and-diff reference.  Read once from the environment
   ([REPRO_CHECK_DELTAS=1]); tests toggle it in-process. *)
let check_deltas =
  ref
    (match Sys.getenv_opt "REPRO_CHECK_DELTAS" with
     | Some ("1" | "true" | "yes") -> true
     | Some _ | None -> false)

let set_check_deltas enabled = check_deltas := enabled
let check_deltas_enabled () = !check_deltas

(* What the solution knows about its own evaluation.  [Settled m]: the
   state is feasible with makespan [m], and the O(n+k) evaluation record
   has not been built — the move path reads only the makespan.
   [Evaluated None] is an infeasible state. *)
type cache =
  | Stale
  | Settled of float
  | Evaluated of Searchgraph.eval option

(* The version chain that makes {!save} O(1): Baker's rerooting, as in
   Conchon and Filliâtre's persistent arrays, over the [assign],
   [impl] and chain-link arrays together.  The live arrays are the
   state of the root version (the one whose [next] is the [live]
   marker); any other version [v] is [v.next]'s state with
   [v.arr.(v.idx) = v.old].
   A write turns the root into such a diff and starts a fresh root;
   [save] keeps the current root; the undo reroots the chain at the
   saved version, reversing the diffs on the way, so undos in any order
   restore the exact arrays. *)
type version = {
  mutable arr : int array;
  mutable idx : int;
  mutable old : int;
  mutable next : version;
}

(* The root's [next]: one shared record that is no solution's version.
   A root pointing at itself would be built through the runtime's
   recursive-value path on every write; this is a plain allocation. *)
let rec live = { arr = [||]; idx = 0; old = 0; next = live }

let fresh_root () = { arr = [||]; idx = 0; old = 0; next = live }

(* Make [v] the root: apply the diffs between it and the root, nearest
   the root first, each reversed so that the old root can come back.
   The path is collected by a tail-recursive walk: an undo may span
   any number of writes. *)
let reroot v =
  let rec path acc v = if v.next == live then acc else path (v :: acc) v.next in
  List.iter
    (fun d ->
      let root = d.next and arr = d.arr and i = d.idx in
      root.arr <- arr;
      root.idx <- i;
      root.old <- arr.(i);
      root.next <- d;
      arr.(i) <- d.old;
      d.arr <- [||];
      d.next <- live)
    (path [] v)

(* The evaluator of a small application: its search graph is never
   kept alive; each settle fills the arrays of one
   {!Searchgraph.Flat} kernel from the solution and runs the pass.
   The fill refills only what changed since the last one: every write
   to [assign], [impl] and the chain links is a diff on the version
   chain, so the path from [filled_at] to the root names exactly the
   positions that differ ({!refill}).  It reads tables, not the
   application: the implementations' from {!App.impl_table}, the
   platform's ones read once from [tables_for]; the record is rebuilt,
   with a full fill, when the solution's platform is another one
   ({!replace_platform}, or an undo across it).  Like [incr], it
   belongs to one solution: copies start without one. *)
type flat = {
  kernel : Searchgraph.Flat.t;
  tables_for : Platform.t;
  sw_time : float array;   (* p * n + v: task v's time on processor p *)
  transfer : float array;  (* application edge: its transfer time *)
  src : int array;         (* application edge: its source *)
  per_clb : float;         (* the device's reconfiguration time per CLB *)
  n_clb : int;             (* the device's CLBs *)
  impls : App.impl_table;  (* hardware time and CLBs per implementation *)
  app_edge : Bytes.t;      (* u * n + v: '\001' for an application edge *)
  mutable filled_at : version;  (* the kernel's state; [live]: none yet *)
  mutable placed : (int * int list) list;  (* the contexts it holds *)
  mutable fits : bool;     (* and whether each is within [n_clb] *)
}

(* assign.(v) = -(p+1) when the task runs in software on processor p
   (so -1 is the primary processor), otherwise the stable id (>= 0) of
   its context.  Stable ids survive context insertions and removals;
   the execution order of contexts is the order of the [contexts]
   association list.  The execution order of processor p is a doubly
   linked chain from [head.(p)] to [tail.(p)] through [next] and [prev]
   (-1 at the ends, for an empty processor, and for a hardware task),
   so a software move links and unlinks in O(1).
   Contexts are never empty, so n ids suffice: [free_ids] holds the ids
   in [0, n) no context uses.  Like [ctxs] it is an immutable list, so
   saving and restoring it is a pointer copy. *)
type t = {
  app : App.t;
  mutable platform : Platform.t;
  assign : int array;
  impl : int array;
  next : int array;
  prev : int array;
  head : int array;
  tail : int array;
  mutable version : version;  (* root of the chain over the six arrays *)
  mutable ctxs : (int * int list) list;
  mutable free_ids : int list;
  mutable cached : cache;
  mutable incr : incr option;
  mutable flat : flat option;
  mutable last_kind : move_kind;
  stats : eval_stats;
}

(* Every write to [assign], [impl] and the chain links goes through
   here, recording the old value on the version chain. *)
let write t arr i x =
  let root = t.version and fresh = fresh_root () in
  root.arr <- arr;
  root.idx <- i;
  root.old <- arr.(i);
  root.next <- fresh;
  t.version <- fresh;
  arr.(i) <- x

let processor_index t v =
  if t.assign.(v) >= 0 then
    invalid_arg "Solution.processor_index: task is in hardware";
  -t.assign.(v) - 1

(* Unlink software [task] from its processor's chain. *)
let unlink t task =
  let p = processor_index t task in
  let a = t.prev.(task) and b = t.next.(task) in
  if a < 0 then write t t.head p b
  else begin
    write t t.next a b;
    write t t.prev task (-1)
  end;
  if b < 0 then write t t.tail p a
  else begin
    write t t.prev b a;
    write t t.next task (-1)
  end

(* Link unlinked [task] into processor [p]'s chain just before
   [anchor], at the tail when [anchor] is -1. *)
let link t task p anchor =
  let a = if anchor < 0 then t.tail.(p) else t.prev.(anchor) in
  if a < 0 then write t t.head p task
  else begin
    write t t.next a task;
    write t t.prev task a
  end;
  if anchor < 0 then write t t.tail p task
  else begin
    write t t.prev anchor task;
    write t t.next task anchor
  end

(* Append the tasks of [order] to processor [p]'s chain. *)
let link_all t p order = List.iter (fun v -> link t v p (-1)) order

let app t = t.app
let platform t = t.platform
let size t = App.size t.app

(* Drop the live search graph: the next evaluation builds a new one. *)
let invalidate t =
  t.cached <- Stale;
  t.incr <- None

let eval_stats t = t.stats

(* A solution with every chain empty; the constructors link its
   orders. *)
let unlinked application platform ~assign ~impl ~ctxs ~free_ids =
  let n = App.size application in
  let processors = Platform.processor_count platform in
  {
    app = application;
    platform;
    assign;
    impl;
    next = Array.make n (-1);
    prev = Array.make n (-1);
    head = Array.make processors (-1);
    tail = Array.make processors (-1);
    version = fresh_root ();
    ctxs;
    free_ids;
    cached = Stale;
    incr = None;
    flat = None;
    last_kind = Init;
    stats = fresh_stats ();
  }

let all_software application platform =
  let n = App.size application in
  let t =
    unlinked application platform ~assign:(Array.make n (-1))
      ~impl:(Array.make n 0) ~ctxs:[] ~free_ids:(List.init n Fun.id)
  in
  link_all t 0 (Array.to_list (App.topological_order application));
  t

(* Copies never share the incremental state or the flat kernel: the
   one tracks one solution's mutations and would be corrupted by a
   sibling's, the other is scratch space that restarts on several
   domains would overwrite under each other.  The stats record
   stays shared so a solution and its copies count together, and the
   cache is copied as is (a settled copy builds its record from the
   spec, see [evaluate]). *)
let copy t =
  {
    t with
    assign = Array.copy t.assign;
    impl = Array.copy t.impl;
    next = Array.copy t.next;
    prev = Array.copy t.prev;
    head = Array.copy t.head;
    tail = Array.copy t.tail;
    version = fresh_root ();
    cached = t.cached;
    incr = None;
    flat = None;
  }

(* --- delta-log plumbing --- *)

let log_push inc op =
  if inc.log_len = Array.length inc.log then begin
    let grown = Array.make (max 64 (2 * Array.length inc.log)) op in
    Array.blit inc.log 0 grown 0 inc.log_len;
    inc.log <- grown
  end;
  inc.log.(inc.log_len) <- op;
  inc.log_len <- inc.log_len + 1

let mark_dirty inc v = inc.dirty <- v :: inc.dirty

let set_weight inc v w =
  if w <> inc.weights.(v) then begin
    log_push inc (W (v, inc.weights.(v), w));
    inc.weights.(v) <- w;
    mark_dirty inc v
  end

let over_limit inc clbs = if clbs > inc.limit then 1 else 0

(* Store a context's CLB total, keeping [over] in step. *)
let store_clbs inc cid total =
  inc.over <- inc.over - over_limit inc inc.clbs.(cid) + over_limit inc total;
  inc.clbs.(cid) <- total

let set_clbs inc cid total =
  if total <> inc.clbs.(cid) then begin
    log_push inc (Clbs (cid, inc.clbs.(cid)));
    store_clbs inc cid total
  end

(* Replay the inverse ops down to [mark].  Re-inserting a deleted edge
   restores a historical (acyclic) graph, so it can never fail. *)
let rollback app inc ~mark =
  while inc.log_len > mark do
    inc.log_len <- inc.log_len - 1;
    match inc.log.(inc.log_len) with
    | W (v, old, _) ->
      inc.weights.(v) <- old;
      mark_dirty inc v
    | E_add (u, v) ->
      Longest_path.delete_edge inc.lp u v;
      mark_dirty inc v
    | E_del (u, v) ->
      if not (Longest_path.insert_edge inc.lp u v) then assert false;
      mark_dirty inc v
    | Comm_set (i, old) ->
      Searchgraph.Comm.set inc.comm i old;
      (* The term doubles as the longest-path weight of this edge. *)
      mark_dirty inc (App.edge app i).App.dst
    | Pairs (old, fresh) ->
      inc.pairs <- old;
      inc.pairs_fresh <- fresh
    | Touch vs -> List.iter (mark_dirty inc) vs
    | Clbs (cid, old) -> store_clbs inc cid old
  done

(* Undo closures outliving this many log entries are long dead (undo is
   LIFO and one-shot), so [save] resets the log once it grows past the
   threshold. *)
let log_truncate_threshold = 8192

let save t =
  let version = t.version in
  let ctxs = t.ctxs in
  let free_ids = t.free_ids in
  let cached = t.cached in
  let platform = t.platform in
  let last_kind = t.last_kind in
  let mark =
    match t.incr with
    | Some inc when not inc.desync ->
      if inc.log_len > log_truncate_threshold then begin
        inc.log_len <- 0;
        inc.epoch <- inc.epoch + 1
      end;
      let len = inc.log_len in
      let last = if len = 0 then None else Some inc.log.(len - 1) in
      Some (inc, inc.epoch, len, last)
    | Some _ | None -> None
  in
  fun () ->
    (* The incremental state rolls its delta log back to the save
       point when the log still holds the save's history: same
       generation, and the entry just below the mark is the one the
       save saw — every pushed op is a fresh block, so an earlier undo
       that cut below the mark and pushed again is told apart.  Any
       mismatch (a rebuild happened in between, the log was truncated,
       an out-of-order undo rewrote it) drops the live graph — the
       solution arrays are restored either way. *)
    (match (t.incr, mark) with
     | Some inc, Some (saved, epoch, len, last)
       when inc == saved && inc.epoch = epoch && inc.log_len >= len
            && (match last with
                | None -> true
                | Some op -> inc.log.(len - 1) == op) ->
       rollback t.app inc ~mark:len;
       inc.desync <- false
     | Some _, _ -> t.incr <- None
     | None, _ -> ());
    reroot version;
    t.version <- version;
    t.ctxs <- ctxs;
    t.free_ids <- free_ids;
    t.cached <- cached;
    t.platform <- platform;
    t.last_kind <- last_kind

let binding t v =
  if t.assign.(v) < 0 then Searchgraph.Sw
  else begin
    let rec position j = function
      | [] -> assert false (* assign always references a live context *)
      | (id, _) :: rest -> if id = t.assign.(v) then j else position (j + 1) rest
    in
    Searchgraph.Hw (position 0 t.ctxs)
  end

let context_id t v = if t.assign.(v) >= 0 then t.assign.(v) else -1
let context_chain t = t.ctxs

let impl_index t v = t.impl.(v)
let sw_first t p = t.head.(p)
let sw_next t v = t.next.(v)

(* Processor [p]'s order as a list, consed from the tail back. *)
let order_of t p =
  let rec walk v acc = if v < 0 then acc else walk t.prev.(v) (v :: acc) in
  walk t.tail.(p) []

let sw_order t = order_of t 0
let sw_orders t = List.init (Array.length t.head) (order_of t)
let contexts t = List.map snd t.ctxs
let n_contexts t = List.length t.ctxs

let hw_tasks t =
  List.filter (fun v -> t.assign.(v) >= 0) (List.init (size t) Fun.id)

(* A plain loop: it runs on every [impl] and [ctx_migrate] draw. *)
let hw_count t =
  let count = ref 0 in
  for v = 0 to Array.length t.assign - 1 do
    if t.assign.(v) >= 0 then incr count
  done;
  !count

let nth_hw_task t k =
  if k < 0 then invalid_arg "Solution.nth_hw_task";
  let n = size t in
  let rec find v k =
    if v = n then invalid_arg "Solution.nth_hw_task"
    else if t.assign.(v) < 0 then find (v + 1) k
    else if k = 0 then v
    else find (v + 1) (k - 1)
  in
  find 0 k

let task_clbs t v = (Task.impl (App.task t.app v) t.impl.(v)).Task.clbs

let rec members_clbs t = function
  | [] -> 0
  | v :: rest -> task_clbs t v + members_clbs t rest

let context_clbs t j =
  match List.nth_opt t.ctxs j with
  | Some (_, members) -> members_clbs t members
  | None -> invalid_arg "Solution.context_clbs: no such context"

(* The spec's bindings come from one table filled in a pass over the
   contexts, one [Hw j] per context: a consumer asks once or twice per
   task and edge. *)
let spec t =
  let bindings = Array.make (size t) Searchgraph.Sw in
  List.iteri
    (fun j (_, members) ->
      let hw = Searchgraph.Hw j in
      List.iter (fun v -> bindings.(v) <- hw) members)
    t.ctxs;
  let orders = sw_orders t in
  {
    Searchgraph.app = t.app;
    platform = t.platform;
    binding = (fun v -> bindings.(v));
    impl_choice = (fun v -> t.impl.(v));
    sw_order = List.hd orders;
    contexts = List.map snd t.ctxs;
    proc_of =
      (fun v -> if t.assign.(v) < 0 then -t.assign.(v) - 1 else 0);
    extra_sw_orders = List.tl orders;
  }

let capacity_ok t =
  let limit = Platform.n_clb t.platform in
  List.for_all (fun (_, members) -> members_clbs t members <= limit) t.ctxs

(* A live context's members changed: its CLB total and the weight of
   its configuration node follow. *)
let resize_context t inc cid members =
  let clbs = members_clbs t members in
  set_clbs inc cid clbs;
  set_weight inc (size t + cid) (Platform.reconfiguration_time t.platform clbs)

(* Mirror of [Searchgraph.exec_time] reading the solution directly, so
   the incremental path does not rebuild a spec per move. *)
let exec_time_of t v =
  let task = App.task t.app v in
  if t.assign.(v) < 0 then
    task.Task.sw_time /. Platform.processor_speed t.platform (processor_index t v)
  else (Task.impl task t.impl.(v)).Task.hw_time

(* [Searchgraph.resource_code] read off the assignment array directly:
   [assign.(v)] is already -(p+1) for software on processor p, and any
   context id (>= 0) is the reconfigurable circuit, code 0.  Solutions
   never bind tasks to an ASIC, so the coding is complete. *)
let crossing_of t u v =
  let code a = if a < 0 then a else 0 in
  code t.assign.(u) <> code t.assign.(v)

(* The boundary term of one application edge under this solution's
   bindings — one leaf of [Searchgraph.comm_terms].
   The rebuild's [Searchgraph.Comm] tree and the incrementally patched
   one evaluate the identical expression over identical terms, hence
   bitwise-equal totals (resume replay depends on it). *)
let comm_term_of t { App.src; dst; kbytes } =
  if crossing_of t src dst then Platform.transfer_time t.platform kbytes
  else 0.0

(* Edge weights for the longest path, read off the live boundary-term
   tree: the term of application edge [i] is already the transfer time
   when crossing and 0 otherwise, kept current by the per-move comm
   patch — so the innermost refresh loop scans the tiny per-task
   in-edge list of the application index ({!App.edge_weight}) instead
   of recomputing a transfer time on every predecessor visit.
   Sequencing edges are not application edges and weigh 0. *)
let edge_weight_over app comm = App.edge_weight app (Searchgraph.Comm.get comm)

(* Pairs packed into a single int (u·2n+v), sorted. *)
let pack_pairs t pairs =
  let stride = 2 * size t in
  List.sort Int.compare (List.map (fun (u, v) -> (u * stride) + v) pairs)

(* The canonical dynamic pair list (Esw ∪ Ehw) the live graph must
   realize for the current solution state, configuration nodes at
   [n + id]. *)
let sequencing_pairs t =
  let n = size t in
  let cfg = Array.of_list (List.map (fun (cid, _) -> n + cid) t.ctxs) in
  let orders = sw_orders t in
  Searchgraph.sequencing_pairs
    ~cfg:(fun j -> cfg.(j))
    ~sw_order:(List.hd orders)
    ~extra_sw_orders:(List.tl orders)
    ~contexts:(List.map snd t.ctxs)

(* [a \ b] for sorted int lists. *)
let rec diff_sorted a b =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | x :: xs, y :: ys ->
    if x = y then diff_sorted xs ys
    else if (x : int) < y then x :: diff_sorted xs b
    else diff_sorted a ys

(* The Esw pairs with an endpoint in [around], each once and packed
   (u·2n+v): [(prev a, a)] and [(a, next a)] for every task [a] of the
   list, skipping a pair whose other endpoint was visited first.  A
   hardware task has no links, hence no pairs.  O(|around|), whatever
   the chain lengths. *)
let sw_pairs_near t inc around =
  let stride = 2 * size t in
  inc.stamp <- inc.stamp + 1;
  let seen = inc.stamp in
  List.fold_left
    (fun acc a ->
      if inc.around.(a) = seen then acc
      else begin
        inc.around.(a) <- seen;
        let p = t.prev.(a) and s = t.next.(a) in
        let acc =
          if p >= 0 && inc.around.(p) <> seen then (p * stride) + a :: acc
          else acc
        in
        if s >= 0 && inc.around.(s) <> seen then (a * stride) + s :: acc
        else acc
      end)
    [] around

(* The before-capture of a software move, taken ahead of the mutation
   for the resync that follows it; without a live graph there is
   nothing to edit. *)
let sw_capture t around =
  match t.incr with
  | Some inc when not inc.desync -> sw_pairs_near t inc around
  | Some _ | None -> []

(* The context half of a move's edge delta.  Context [c] (node
   [n + id]) owns its intra pairs [(c, v)], [v] a member, and its GTLP
   pairs [(p, c)] and [(u, c)], [u] a member of its predecessor [p]
   ({!Searchgraph.ehw_pairs}' adjacencies, keyed by the later context).
   So its pairs change only with its members, its predecessor or its
   predecessor's members.  One walk of the mutated list against the
   recorded pre-move one emits each change: O(k), plus the member lists
   the move rebuilt (an intact one is physically equal).  [push_intra]
   and [push_into] pack [(c, v)] and [(v, c)] for each [v] of a list. *)
let rec push_intra n c acc = function
  | [] -> acc
  | v :: rest -> push_intra n c ((c * 2 * n) + v :: acc) rest

let rec push_into n c acc = function
  | [] -> acc
  | u :: rest -> push_into n c ((u * 2 * n) + c :: acc) rest

(* Node [c]'s GTLP pairs behind the context [pred] whose members are
   [members]; none for the first context ([pred < 0]). *)
let push_gtlp n pred members c acc =
  if pred < 0 then acc
  else push_into n c (((n + pred) * 2 * n) + c :: acc) members

(* The tasks that left and joined a member list: the old ones not
   re-stamped [s + 1] with the new, the new ones not stamped [s]. *)
let member_diff inc old_members members =
  inc.stamp <- inc.stamp + 2;
  let s = inc.stamp - 1 and around = inc.around in
  List.iter (fun v -> around.(v) <- s) old_members;
  let came = List.filter (fun v -> around.(v) <> s) members in
  List.iter (fun v -> around.(v) <- s + 1) members;
  (List.filter (fun v -> around.(v) <> s + 1) old_members, came)

(* A move's packed pairs, removed and added, before cancellation; the
   contexts created or with changed members; the ids it freed. *)
type delta = {
  mutable rm : int list;
  mutable add : int list;
  mutable resized : (int * int list) list;
  mutable freed : int list;
}

(* Stamp the pre-move list's ids [s] and record their members (an
   unchanged list is not rewritten) and predecessors. *)
let rec record_ctxs inc s pred = function
  | [] -> ()
  | (cid, members) :: rest ->
    inc.ctx_seen.(cid) <- s;
    if not (inc.ctx_members.(cid) == members) then
      inc.ctx_members.(cid) <- members;
    inc.ctx_pred.(cid) <- pred;
    record_ctxs inc s cid rest

(* Walk the mutated list behind context [pred] (-1 before the first)
   with its members and their diff.  A context stamped [s] was in the
   old list (all are re-stamped [s + 1]); a created one diffs as if it
   had no members and came first. *)
let rec diff_ctxs inc d n s pred pred_members pred_gone pred_came = function
  | [] -> ()
  | (cid, members) :: rest ->
    let c = n + cid and held = inc.ctx_seen.(cid) = s in
    inc.ctx_seen.(cid) <- s + 1;
    let old_members = if held then inc.ctx_members.(cid) else [] in
    let gone, came =
      if old_members == members then ([], [])
      else member_diff inc old_members members
    in
    if not (gone == [] && came == []) then begin
      d.rm <- push_intra n c d.rm gone;
      d.add <- push_intra n c d.add came;
      d.resized <- (cid, members) :: d.resized
    end;
    let old_pred = if held then inc.ctx_pred.(cid) else -1 in
    if old_pred = pred then begin
      d.rm <- push_into n c d.rm pred_gone;
      d.add <- push_into n c d.add pred_came
    end
    else begin
      (* The whole GTLP set is replaced: a pair on both sides (a task
         that moved into the new predecessor) cancels later. *)
      if old_pred >= 0 then
        d.rm <- push_gtlp n old_pred inc.ctx_members.(old_pred) c d.rm;
      d.add <- push_gtlp n pred pred_members c d.add
    end;
    diff_ctxs inc d n s cid members gone came rest

(* The contexts of the old list still stamped [s] were freed by the
   move: their whole owned sets go. *)
let rec free_ctxs inc d n s = function
  | [] -> ()
  | (cid, members) :: rest ->
    if inc.ctx_seen.(cid) = s then begin
      let pred = inc.ctx_pred.(cid) in
      d.rm <- push_intra n (n + cid) d.rm members;
      if pred >= 0 then
        d.rm <- push_gtlp n pred inc.ctx_members.(pred) (n + cid) d.rm;
      d.freed <- cid :: d.freed
    end;
    free_ctxs inc d n s rest

(* Re-synchronize the live search graph with a mutated solution from
   the move's own footprint — no global pair-list regeneration.  The
   mutator hands over the tasks around the disturbed software
   positions ([sw_around]) with the packed Esw pairs they had before
   the mutation ([sw_before], from {!sw_capture}), its pre-move context
   list ([old_ctxs] — immutable, so snapshotting it is a pointer copy)
   and the tasks whose binding changed ([rebound]).

   The removals are [sw_before] and the context pairs the move took
   away, the additions the Esw pairs around [sw_around] after it and
   the context pairs it brought.  A pair on both sides (a software
   adjacency the move kept, a GTLP pair re-emitted under a new
   predecessor) cancels; the rest is the exact edge delta, since the
   pairs of chains and contexts outside the footprint are untouched.
   It is applied as deletions then insertions in packed order, the
   canonical order of the regenerate-and-diff path.  Each intermediate
   edge set is a subset of the union of two acyclic sets realized over
   the same order-maintained graph, so a genuine cycle is detected by
   some insertion failing — never spuriously.  Weights are re-read for
   rebound tasks and touched contexts only, and the boundary-traffic
   sum tree is patched by flipping the terms of the edges incident to
   rebound tasks.  Under [REPRO_CHECK_DELTAS] the emitted delta is
   asserted against the regenerate-and-diff reference. *)
let native_resync t kind ~rebound ~sw_around ~sw_before ~old_ctxs =
  t.cached <- Stale;
  t.last_kind <- kind;
  match t.incr with
  | None -> ()
  | Some inc when inc.desync ->
    (* Mutating on top of an unresolved desync loses the diff base. *)
    t.incr <- None
  | Some inc ->
    let mark = inc.log_len in
    let n = size t in
    let appg = t.app.App.graph in
    let ks = kind_stats t.stats kind in
    (* 1. The move's pairs, removed and added.  Pointer equality of the
       association lists means the move never touched the context
       chain: only the disturbed software adjacencies changed. *)
    let d = { rm = sw_before; add = []; resized = []; freed = [] } in
    d.add <- sw_pairs_near t inc sw_around;
    if not (old_ctxs == t.ctxs) then begin
      inc.stamp <- inc.stamp + 2;
      let s = inc.stamp - 1 in
      record_ctxs inc s (-1) old_ctxs;
      diff_ctxs inc d n s (-1) [] [] [] t.ctxs;
      free_ctxs inc d n s old_ctxs
    end;
    let emitted = List.length d.rm + List.length d.add in
    t.stats.pairs_emitted <- t.stats.pairs_emitted + emitted;
    ks.k_pairs_emitted <- ks.k_pairs_emitted + emitted;
    (* 2. Cancel what is on both sides; the rest, sorted, is the
       delta. *)
    let rm = List.sort Int.compare d.rm and add = List.sort Int.compare d.add in
    let removals = diff_sorted rm add and additions = diff_sorted add rm in
    (* Paranoid mode: the regenerate-and-diff reference must agree with
       the emitted delta.  [pairs] is maintained only here; a cache
       left stale by default-mode moves is re-seeded without asserting
       (self-healing when the mode is toggled on mid-run). *)
    if !check_deltas then begin
      t.stats.pair_regens <- t.stats.pair_regens + 1;
      ks.k_pair_regens <- ks.k_pair_regens + 1;
      let fresh = pack_pairs t (sequencing_pairs t) in
      if inc.pairs_fresh then begin
        let want_rm = diff_sorted inc.pairs fresh in
        let want_add = diff_sorted fresh inc.pairs in
        if removals <> want_rm || additions <> want_add then
          failwith
            (Printf.sprintf
               "Solution: %s: emitted deltas diverge from \
                regenerate-and-diff (emitted %d-/%d+, reference %d-/%d+)"
               (move_kind_label kind) (List.length removals)
               (List.length additions) (List.length want_rm)
               (List.length want_add))
      end;
      log_push inc (Pairs (inc.pairs, inc.pairs_fresh));
      inc.pairs <- fresh;
      inc.pairs_fresh <- true
    end
    else inc.pairs_fresh <- false;
    (* 3. Apply the delta: deletions then insertions, packed order. *)
    let stride = 2 * n in
    let edited = ref 0 in
    List.iter
      (fun p ->
        let u = p / stride and v = p mod stride in
        (* An Esw chain pair can coincide with a static application
           edge; the shared arc must survive its removal. *)
        if not (u < n && v < n && Graph.has_edge appg u v) then begin
          Longest_path.delete_edge inc.lp u v;
          log_push inc (E_del (u, v));
          mark_dirty inc v;
          incr edited
        end)
      removals;
    let cyclic = ref false in
    (try
       List.iter
         (fun p ->
           let u = p / stride and v = p mod stride in
           if not (Longest_path.has_edge inc.lp u v) then
             if Longest_path.insert_edge inc.lp u v then begin
               log_push inc (E_add (u, v));
               mark_dirty inc v;
               incr edited
             end
             else raise Exit)
         additions
     with Exit -> cyclic := true);
    if !cyclic then begin
      (* The new sequencing contradicts the precedences: a fresh build
         of the same edge set would be cyclic too.  Leave the graph at
         the pre-move state and report infeasible until the move is
         undone. *)
      rollback t.app inc ~mark;
      inc.desync <- true
    end
    else begin
      (* 4. Weights: rebound tasks re-read their execution time (and
         their application successors see changed edge weights);
         configuration nodes track their context's area — only where
         membership changed — and a freed context's node goes back to
         weight 0. *)
      List.iter
        (fun v ->
          set_weight inc v (exec_time_of t v);
          let touched = v :: Graph.succs appg v in
          log_push inc (Touch touched);
          List.iter (mark_dirty inc) touched)
        rebound;
      List.iter (fun (cid, members) -> resize_context t inc cid members)
        d.resized;
      List.iter
        (fun cid ->
          set_clbs inc cid 0;
          set_weight inc (n + cid) 0.0)
        d.freed;
      (* 5. Boundary traffic: flip the sum-tree terms of the edges
         incident to rebound tasks — O(deg · log m), not a re-walk of
         the application graph. *)
      if rebound <> [] then begin
        let patched = ref 0 in
        List.iter
          (fun v ->
            App.iter_incident t.app v (fun i ->
                let term = comm_term_of t (App.edge t.app i) in
                let old = Searchgraph.Comm.get inc.comm i in
                if term <> old then begin
                  log_push inc (Comm_set (i, old));
                  Searchgraph.Comm.set inc.comm i term;
                  incr patched
                end))
          rebound;
        t.stats.comm_patched <- t.stats.comm_patched + !patched;
        ks.k_comm_patched <- ks.k_comm_patched + !patched
      end;
      t.stats.edges_edited <- t.stats.edges_edited + !edited;
      ks.k_edges_edited <- ks.k_edges_edited + !edited
    end

(* Assemble the evaluation record from the live state, reading only
   the canonical nodes (tasks, then the configuration nodes of the live
   contexts in execution order) so free ids are invisible.  The folds run in
   the same order as [Searchgraph.evaluate]'s, keeping the result
   bit-identical to a rebuild. *)
let eval_from_incr t inc =
  let n = size t in
  let k = List.length t.ctxs in
  let lp_finish = Longest_path.finish_array inc.lp in
  let finish = Array.make (n + k) 0.0 in
  Array.blit lp_finish 0 finish 0 n;
  let initial_reconfig = ref 0.0 in
  let dynamic_reconfig = ref 0.0 in
  List.iteri
    (fun j (cid, _) ->
      let s = n + cid in
      finish.(n + j) <- lp_finish.(s);
      if j = 0 then initial_reconfig := inc.weights.(s)
      else dynamic_reconfig := !dynamic_reconfig +. inc.weights.(s))
    t.ctxs;
  let makespan = Array.fold_left Float.max 0.0 finish in
  let initial_reconfig = !initial_reconfig in
  {
    Searchgraph.makespan;
    initial_reconfig;
    dynamic_reconfig = !dynamic_reconfig;
    comm = Searchgraph.Comm.total inc.comm;
    n_contexts = k;
    finish;
  }

(* [Float.max] with the common case first: one float compare, no
   boxing. *)
let fmax m x =
  if x > m then x
  else if Float.is_nan x || Float.is_nan m then Float.max m x
  else m
[@@inline]

(* The makespan read over the sinks of the live graph: the chain tails
   and the members of the last context.  Every other task has a
   successor (its chain successor, or the next context's configuration
   node), every configuration node precedes its context's members, and
   the nodes of free ids are isolated and of weight 0.  Node and edge
   weights are >= 0, so a finish time never exceeds its successors',
   and the maximum over these sinks is the maximum over the whole
   finish array, bit for bit: O(processors + contexts + |last
   context|), where a scan costs 2n.  [REPRO_CHECK_DELTAS] asserts it
   against the scan. *)
let settled t inc =
  let finish = Longest_path.finish_array inc.lp in
  let m = ref 0.0 in
  for p = 0 to Array.length t.tail - 1 do
    let v = t.tail.(p) in
    if v >= 0 then m := fmax !m finish.(v)
  done;
  let rec last = function
    | [] -> []
    | [ (_, members) ] -> members
    | _ :: rest -> last rest
  in
  (* A loop, not [List.iter]: a float ref captured by a closure would
     be boxed on every store. *)
  let members = ref (last t.ctxs) in
  while
    match !members with
    | [] -> false
    | v :: rest ->
      m := fmax !m finish.(v);
      members := rest;
      true
  do
    ()
  done;
  let m = !m in
  if
    !check_deltas
    && Int64.bits_of_float m
       <> Int64.bits_of_float (Array.fold_left Float.max 0.0 finish)
  then failwith "Solution: the sink makespan diverges from the finish scan";
  Settled m

(* Book one from-scratch evaluation of [nodes] search-graph nodes
   against the kind of the mutation before it. *)
let book_full t nodes =
  t.stats.full_evals <- t.stats.full_evals + 1;
  t.stats.full_nodes <- t.stats.full_nodes + nodes;
  let ks = kind_stats t.stats t.last_kind in
  ks.k_full_evals <- ks.k_full_evals + 1

(* Full build: construct the search graph over n task and n
   configuration nodes and its longest-path state, and keep them alive
   for the incremental path. *)
let evaluate_full t =
  let n = size t in
  let k = List.length t.ctxs in
  let g = Graph.create (2 * n) in
  List.iter (fun { App.src; dst; kbytes = _ } -> Graph.add_edge g src dst)
    (App.edges t.app);
  let pairs_raw = sequencing_pairs t in
  List.iter (fun (a, b) -> Graph.add_edge g a b) pairs_raw;
  let weights = Array.make (2 * n) 0.0 in
  for v = 0 to n - 1 do
    weights.(v) <- exec_time_of t v
  done;
  let clbs = Array.make n 0 in
  List.iter
    (fun (cid, members) ->
      clbs.(cid) <- members_clbs t members;
      weights.(n + cid) <- Platform.reconfiguration_time t.platform clbs.(cid))
    t.ctxs;
  let comm =
    Searchgraph.Comm.create
      (Searchgraph.comm_terms ~platform:t.platform ~app:t.app
         ~crossing:(crossing_of t))
  in
  match
    Longest_path.create g
      ~node_weight:(fun v -> weights.(v))
      ~edge_weight:(edge_weight_over t.app comm)
  with
  | None -> Evaluated None
  | Some lp ->
    book_full t (n + k);
    let inc =
      {
        lp;
        weights;
        (* The canonical pair cache is a verification artifact: seed it
           only when the paranoid cross-check will read it. *)
        pairs = (if !check_deltas then pack_pairs t pairs_raw else []);
        pairs_fresh = !check_deltas;
        comm;
        around = Array.make n 0;
        stamp = 0;
        ctx_seen = Array.make n 0;
        ctx_members = Array.make n [];
        ctx_pred = Array.make n (-1);
        log = [||];
        log_len = 0;
        epoch = 0;
        dirty = [];
        desync = false;
        clbs;
        over = 0;  (* [settle] builds only a state within capacity *)
        limit = Platform.n_clb t.platform;
      }
    in
    t.incr <- Some inc;
    settled t inc

(* Incremental path: the live graph already realizes the mutated
   structure (resync applied the edge delta and weights eagerly);
   propagate through the dirty cones only. *)
let evaluate_incremental t inc =
  (match inc.dirty with
   | [] -> ()
   | dirty ->
     inc.dirty <- [];
     Longest_path.refresh inc.lp dirty;
     let touched = Longest_path.touched_last_refresh inc.lp in
     t.stats.incr_nodes <- t.stats.incr_nodes + touched;
     let ks = kind_stats t.stats t.last_kind in
     ks.k_incr_nodes <- ks.k_incr_nodes + touched);
  t.stats.incr_evals <- t.stats.incr_evals + 1;
  (kind_stats t.stats t.last_kind).k_incr_evals <-
    (kind_stats t.stats t.last_kind).k_incr_evals + 1;
  settled t inc

(* Paranoid mode: the live adjacency must be the application edges
   together with the regenerated canonical pairs, and the longest-path
   state's two slice stores must agree ({!Longest_path.edges}). *)
let check_adjacency t inc =
  let stride = 2 * size t in
  let pack (u, v) = (u * stride) + v in
  let app_edges =
    List.map (fun { App.src; dst; kbytes = _ } -> (src, dst)) (App.edges t.app)
  in
  if
    List.map pack (Longest_path.edges inc.lp)
    <> List.sort_uniq Int.compare
         (List.rev_map pack (List.rev_append app_edges (sequencing_pairs t)))
  then
    failwith "Solution: the live adjacency diverges from the application \
              edges and the canonical pairs"

(* Applications of at most this many tasks are judged by the flat
   pass, larger ones by the live graph.  Below it, the per-move pair
   emission, edge edits, delta log and cone refresh cost more than a
   pass over the solution's own arrays refilled where the move wrote;
   above it, the pass grows with the graph while a move's cone stays
   small.  Measured by annealing layered graphs of 31 to 1004 tasks
   with each evaluator: the flat pass wins at every size up to 303
   tasks in two rounds, by 1.1-1.3x from 99 to 128, and the live graph
   wins at 1004 (EXPERIMENTS.md).  The constant stays below the 132
   tasks of the GA benchmark's graph, so no benchmark workload changes
   evaluator with it. *)
let flat_max_tasks = 127

(* The flat evaluator for the current platform, built on first use
   and after a platform change. *)
let flat_of t =
  match t.flat with
  | Some f when f.tables_for == t.platform -> f
  | Some _ | None ->
    let app = t.app and platform = t.platform and n = size t in
    let m = App.edge_count app in
    let src = Array.init m (fun e -> (App.edge app e).App.src) in
    let app_edge = Bytes.make (n * n) '\000' in
    for e = 0 to m - 1 do
      Bytes.set app_edge ((src.(e) * n) + (App.edge app e).App.dst) '\001'
    done;
    let f =
      {
        kernel = Searchgraph.Flat.create app ~contexts:n ~members:n;
        tables_for = platform;
        sw_time =
          Array.init
            (Platform.processor_count platform * n)
            (fun i ->
              (App.task app (i mod n)).Task.sw_time
              /. Platform.processor_speed platform (i / n));
        transfer =
          Array.init m (fun e ->
              Platform.transfer_time platform (App.edge app e).App.kbytes);
        src;
        (* [Platform.reconfiguration_time] is this times the CLBs. *)
        per_clb = Platform.reconfiguration_time platform 1;
        n_clb = Platform.n_clb platform;
        impls = App.impl_table app;
        app_edge;
        filled_at = live;
        placed = [];
        fits = false;
      }
    in
    t.flat <- Some f;
    f

(* The fill, shared by the full one and the refill along the version
   chain.  Task [v]'s entries: its execution time, its chain link (one
   that repeats an application edge is left out, as in
   [Searchgraph.flat]) and, in software, its context -1; a hardware
   task's context comes with the placement. *)
let fill_task f (k : Searchgraph.Flat.t) t n v =
  let a = t.assign.(v) in
  if a < 0 then begin
    k.exec.(v) <- f.sw_time.(((-a - 1) * n) + v);
    k.context.(v) <- -1;
    let w = t.next.(v) in
    k.next_sw.(v) <-
      (if w >= 0 && Bytes.get f.app_edge ((v * n) + w) = '\000' then w else -1)
  end
  else begin
    k.exec.(v) <- f.impls.hw_time.(f.impls.first.(v) + t.impl.(v));
    k.next_sw.(v) <- -1
  end

(* Application edge [e]'s weight: its transfer time when it crosses. *)
let fill_edge f (k : Searchgraph.Flat.t) t e =
  k.weight.(e) <-
    (if crossing_of t f.src.(e) k.dst.(e) then f.transfer.(e) else 0.0)

(* The edges into and out of task [v]: its binding changed. *)
let fill_incident f k t v =
  let ins = App.in_edges t.app and outs = App.out_edges t.app in
  for s = ins.App.start.(v) to ins.App.start.(v + 1) - 1 do
    fill_edge f k t ins.App.edge.(s)
  done;
  for s = outs.App.start.(v) to outs.App.start.(v + 1) - 1 do
    fill_edge f k t outs.App.edge.(s)
  done

(* Context [j]'s members from slot [i] of the kernel: each is placed and
   its CLBs summed; the end slot closes the context. *)
let rec place_members f (k : Searchgraph.Flat.t) t j i clbs = function
  | [] ->
    k.ctx_start.(j + 1) <- i;
    clbs
  | v :: rest ->
    k.context.(v) <- j;
    k.ctx_member.(i) <- v;
    place_members f k t j (i + 1)
      (clbs + f.impls.clbs.(f.impls.first.(v) + t.impl.(v)))
      rest

(* The contexts from position [j] on, with their configuration times and
   count: whether each is within the device. *)
let rec place_contexts f (k : Searchgraph.Flat.t) t j fits = function
  | [] ->
    k.n_contexts <- j;
    fits
  | (_, members) :: rest ->
    let clbs = place_members f k t j k.ctx_start.(j) 0 members in
    k.cfg_time.(j) <- f.per_clb *. float_of_int clbs;
    place_contexts f k t (j + 1) (fits && clbs <= f.n_clb) rest

(* Every entry of kernel [k]: whether the contexts fit. *)
let fill_all f k t =
  let n = size t in
  for v = 0 to n - 1 do
    fill_task f k t n v
  done;
  for e = 0 to Array.length f.src - 1 do
    fill_edge f k t e
  done;
  place_contexts f k t 0 true t.ctxs

(* Refill the entries of the tasks named by the diffs from version [v]
   to the root, at most [budget] of them.  The kernel reads [assign],
   [impl] and [next] only: a [prev], [head] or [tail] diff comes with
   [next] diffs of the tasks whose links changed.  [-1] when the path
   is longer than the budget, otherwise [1] when an implementation
   changed and [impl] when none did. *)
let rec refill_path f k t n (v : version) budget impl =
  if v.next == live then impl
  else if budget = 0 then -1
  else begin
    let arr = v.arr and i = v.idx in
    if arr == t.assign || arr == t.next || arr == t.impl then
      fill_task f k t n i;
    if arr == t.assign then fill_incident f k t i;
    refill_path f k t n v.next (budget - 1) (if arr == t.impl then 1 else impl)
  end

(* Bring the kernel to the solution's state.  A first fill, or a path
   longer than the task count, fills everything; otherwise the path is
   refilled, and the contexts re-placed only when the list is another
   one or an implementation changed. *)
let refill f t =
  let k = f.kernel and n = size t in
  let changed =
    if f.filled_at == live then -1 else refill_path f k t n f.filled_at n 0
  in
  if changed < 0 then f.fits <- fill_all f k t
  else if changed > 0 || not (t.ctxs == f.placed) then
    f.fits <- place_contexts f k t 0 true t.ctxs;
  f.placed <- t.ctxs;
  f.filled_at <- t.version

(* Paranoid mode: the refilled kernel must hold what a full fill into
   fresh arrays does. *)
let check_refill f t =
  let k = f.kernel and n = size t in
  let full = Searchgraph.Flat.create t.app ~contexts:n ~members:n in
  let fits = fill_all f full t in
  let nc = full.n_contexts in
  let same eq a b len =
    let rec from i = i >= len || (eq a.(i) b.(i) && from (i + 1)) in
    from 0
  in
  let bits x y = Int64.bits_of_float x = Int64.bits_of_float y in
  if
    not
      (fits = f.fits && nc = k.n_contexts
      && same bits full.exec k.exec n
      && same Int.equal full.next_sw k.next_sw n
      && same Int.equal full.context k.context n
      && same bits full.weight k.weight (Array.length full.weight)
      && same Int.equal full.ctx_start k.ctx_start (nc + 1)
      && same Int.equal full.ctx_member k.ctx_member full.ctx_start.(nc)
      && same bits full.cfg_time k.cfg_time nc)
  then failwith "Solution: the flat refill diverges from a full fill"

(* The flat settle: refill the kernel with [Searchgraph.flat]'s arrays
   and run it when the contexts fit.  The same pass over the same
   arrays as [Searchgraph.evaluate (spec t)], so the same bits;
   [REPRO_CHECK_DELTAS] asserts the refill against a full fill and the
   result against [Searchgraph.evaluate]. *)
let settle_flat t =
  let f = flat_of t in
  refill f t;
  if !check_deltas then check_refill f t;
  let k = f.kernel in
  let result =
    if not f.fits then Evaluated None
    else begin
      book_full t (size t + k.n_contexts);
      if Searchgraph.Flat.pass k then Settled k.makespan else Evaluated None
    end
  in
  if !check_deltas then begin
    let agree =
      match (result, Searchgraph.evaluate (spec t)) with
      | Settled m, Some e ->
        Int64.bits_of_float m = Int64.bits_of_float e.Searchgraph.makespan
      | Evaluated None, None -> true
      | Evaluated None, Some _ -> not (capacity_ok t)
      | (Settled _ | Evaluated _ | Stale), _ -> false
    in
    if not agree then
      failwith "Solution: the flat settle diverges from Searchgraph.evaluate"
  end;
  result

(* Bring the cache up to date — it is never [Stale] afterwards: run the
   flat pass of a small application, or refresh the live graph's dirty
   cones (or rebuild it), and read the makespan.  This is all a move
   costs to judge; the evaluation record waits for [evaluate]. *)
let settle t =
  (match t.cached with
   | Stale ->
     t.cached <-
       (if size t <= flat_max_tasks then settle_flat t
        else
          match t.incr with
          | Some inc ->
            if inc.desync then Evaluated None
            else begin
              if !check_deltas then check_adjacency t inc;
              if !check_deltas && (inc.over = 0) <> capacity_ok t then
                failwith "Solution: the over-capacity count diverges from \
                          capacity_ok";
              if inc.over > 0 then Evaluated None
              else evaluate_incremental t inc
            end
          | None ->
            if not (capacity_ok t) then Evaluated None else evaluate_full t)
   | Settled _ | Evaluated _ -> ());
  t.cached

let makespan t =
  Repro_util.Fault.tick_eval ();
  match settle t with
  | Settled m -> m
  | Evaluated (Some e) -> e.Searchgraph.makespan
  | Evaluated None | Stale -> infinity

(* The record of a settled state, built on demand.  While the live
   graph still realizes that state (in sync, no dirty cone) it
   is read off the live arrays.  A copy carries no live graph, and an
   undo restores the cache but leaves its rolled-back cones dirty:
   there the record comes from [Searchgraph.evaluate], which is
   bit-identical and, like the cached record it stands in for, books
   no evaluation work. *)
let evaluate t =
  Repro_util.Fault.tick_eval ();
  match settle t with
  | Evaluated result -> result
  | Stale -> None
  | Settled _ ->
    let result =
      match t.incr with
      | Some inc when (not inc.desync) && inc.dirty = [] ->
        Some (eval_from_incr t inc)
      | Some _ | None -> Searchgraph.evaluate (spec t)
    in
    t.cached <- Evaluated result;
    result

(* --- mutations --- *)

(* Implementation selection is the structure-preserving move: bindings,
   contexts and orders are untouched, only the task's weight (and its
   context's configuration weight) change. *)
let set_impl t v k =
  if k < 0 || k >= Task.impl_count (App.task t.app v) then
    invalid_arg "Solution.set_impl: implementation index out of range";
  if t.impl.(v) <> k then begin
    write t t.impl v k;
    t.cached <- Stale;
    t.last_kind <- Impl;
    match t.incr with
    | Some inc when inc.desync -> t.incr <- None
    | Some inc ->
      set_weight inc v (exec_time_of t v);
      if t.assign.(v) >= 0 then
        resize_context t inc t.assign.(v) (assoc_int t.assign.(v) t.ctxs)
    | None -> ()
  end

(* An emptied context is dropped and its id freed. *)
let remove_from_context t v =
  let id = t.assign.(v) in
  assert (id >= 0);
  t.ctxs <-
    List.filter_map
      (fun (cid, members) ->
        if cid <> id then Some (cid, members)
        else
          match List.filter (fun w -> w <> v) members with
          | [] ->
            t.free_ids <- cid :: t.free_ids;
            None
          | remaining -> Some (cid, remaining))
      t.ctxs;
  write t t.assign v (-1)

(* A new context takes the id at the head of the free list. *)
let fresh_id t =
  match t.free_ids with
  | id :: rest ->
    t.free_ids <- rest;
    id
  | [] -> assert false (* n ids, and contexts are never empty *)

let detach t task =
  if t.assign.(task) >= 0 then remove_from_context t task else unlink t task

(* [v] and its chain neighbours, onto [acc]: the tasks whose Esw
   adjacencies a removal or an insertion at [v]'s position disturbs. *)
let with_neighbors t v acc =
  let acc = if t.prev.(v) >= 0 then t.prev.(v) :: acc else acc in
  let acc = if t.next.(v) >= 0 then t.next.(v) :: acc else acc in
  v :: acc

let move_to_sw ?(proc = 0) t ~task ~before =
  if proc < 0 || proc >= Array.length t.head then
    invalid_arg "Solution.move_to_sw: no such processor";
  if t.assign.(task) < 0 && processor_index t task = proc then
    invalid_arg "Solution.move_to_sw: task already on that processor";
  let anchor = match before with Some anchor -> anchor | None -> -1 in
  if anchor >= 0 && t.assign.(anchor) <> -(proc + 1) then
    invalid_arg "Solution.move_to_sw: anchor not in that processor's order";
  let old_ctxs = t.ctxs in
  (* The moved task, its chain neighbours at the source, and the
     insertion point with its neighbours (or the old tail when
     appending). *)
  let sw_around =
    with_neighbors t task
      (if anchor >= 0 then with_neighbors t anchor []
       else if t.tail.(proc) >= 0 then [ t.tail.(proc) ]
       else [])
  in
  let sw_before = sw_capture t sw_around in
  detach t task;
  write t t.assign task (-(proc + 1));
  link t task proc anchor;
  native_resync t Sw_migrate ~rebound:[ task ] ~sw_around ~sw_before ~old_ctxs

let joins_context t ~task ~dest =
  if t.assign.(dest) < 0 then
    invalid_arg "Solution.joins_context: destination not in hardware";
  members_clbs t (assoc_int t.assign.(dest) t.ctxs) + task_clbs t task
  <= Platform.n_clb t.platform

let move_to_context t ~task ~dest =
  let dest_id = t.assign.(dest) in
  if dest_id < 0 then
    invalid_arg "Solution.move_to_context: destination not in hardware";
  if t.assign.(task) = dest_id then
    invalid_arg "Solution.move_to_context: already in that context";
  let joins = joins_context t ~task ~dest in
  let old_ctxs = t.ctxs in
  let sw_around = with_neighbors t task [] in
  let sw_before = sw_capture t sw_around in
  (* Detach the source task first. *)
  detach t task;
  let placed = ref false in
  t.ctxs <-
    List.concat_map
      (fun (cid, members) ->
        if cid = dest_id then begin
          if joins then begin
            placed := true;
            write t t.assign task cid;
            [ (cid, task :: members) ]
          end
          else begin
            (* Spawn a fresh context right after the destination. *)
            let fresh = fresh_id t in
            placed := true;
            write t t.assign task fresh;
            [ (cid, members); (fresh, [ task ]) ]
          end
        end
        else [ (cid, members) ])
      t.ctxs;
  assert !placed;
  native_resync t Ctx_migrate ~rebound:[ task ] ~sw_around ~sw_before ~old_ctxs

let insert_context t ~task ~at =
  let k = List.length t.ctxs in
  if at < 0 || at > k then invalid_arg "Solution.insert_context: bad position";
  let old_ctxs = t.ctxs in
  let sw_around = with_neighbors t task [] in
  let sw_before = sw_capture t sw_around in
  detach t task;
  let fresh = fresh_id t in
  write t t.assign task fresh;
  (* The source context may have disappeared; recompute the bound. *)
  let at = min at (List.length t.ctxs) in
  let rec insert j = function
    | rest when j = at -> (fresh, [ task ]) :: rest
    | [] -> [ (fresh, [ task ]) ]
    | c :: rest -> c :: insert (j + 1) rest
  in
  t.ctxs <- insert 0 t.ctxs;
  native_resync t Ctx_create ~rebound:[ task ] ~sw_around ~sw_before ~old_ctxs

let append_context t ~task =
  insert_context t ~task ~at:(List.length t.ctxs)

let swap_contexts t ~at =
  let k = List.length t.ctxs in
  if at < 0 || at >= k - 1 then invalid_arg "Solution.swap_contexts: bad position";
  let rec swap j = function
    | a :: b :: rest when j = at -> b :: a :: rest
    | c :: rest -> c :: swap (j + 1) rest
    | [] -> assert false (* bound checked above *)
  in
  let old_ctxs = t.ctxs in
  t.ctxs <- swap 0 t.ctxs;
  native_resync t Ctx_swap ~rebound:[] ~sw_around:[] ~sw_before:[] ~old_ctxs

let reorder_sw t ~task ~before =
  if t.assign.(task) >= 0 || t.assign.(before) >= 0 then
    invalid_arg "Solution.reorder_sw: both tasks must be in software";
  let p = processor_index t task in
  if processor_index t before <> p then
    invalid_arg "Solution.reorder_sw: tasks on different processors";
  if task <> before then begin
    let old_ctxs = t.ctxs in
    let sw_around = with_neighbors t task (with_neighbors t before []) in
    let sw_before = sw_capture t sw_around in
    unlink t task;
    link t task p before;
    native_resync t Sw_reorder ~rebound:[] ~sw_around ~sw_before ~old_ctxs
  end

let replace_platform t platform =
  if Platform.processor_count platform <> Array.length t.head then
    invalid_arg
      "Solution.replace_platform: platforms must have the same number of \
       processors";
  t.platform <- platform;
  t.last_kind <- Platform_swap;
  (* Every weight and transfer time may change: rebuild. *)
  invalidate t

(* Fenwick tree over the stamps [0, n) of the ready tasks: [tree] is
   1-based, [fenwick_add] counts a stamp in or out, [fenwick_find r]
   is the stamp of ascending rank [r] (1-based) among those counted. *)
let fenwick_add tree stamp d =
  let i = ref (stamp + 1) in
  while !i < Array.length tree do
    tree.(!i) <- tree.(!i) + d;
    i := !i + (!i land - !i)
  done

let fenwick_find tree r =
  let n = Array.length tree - 1 in
  let step = ref 1 in
  while 2 * !step <= n do
    step := 2 * !step
  done;
  let pos = ref 0 and rest = ref r in
  while !step > 0 do
    let next = !pos + !step in
    if next <= n && tree.(next) < !rest then begin
      pos := next;
      rest := !rest - tree.(next)
    end;
    step := !step / 2
  done;
  !pos

let random rng application platform =
  let n = App.size application in
  let t =
    unlinked application platform ~assign:(Array.make n (-1))
      ~impl:(Array.make n 0) ~ctxs:[] ~free_ids:(List.init n Fun.id)
  in
  (* Randomized precedence-consistent software order: Kahn with random
     ready choice.  The draw indexes the ready tasks newest first, the
     sources by increasing id: each task is stamped when it becomes
     ready (the sources in decreasing id), so the [i]-th ready task is
     the one of descending stamp rank [i], found in O(log n). *)
  let g = application.App.graph in
  let indegree = Array.init n (fun v -> Graph.in_degree g v) in
  let stamped = Array.make n 0 and tree = Array.make (n + 1) 0 in
  let stamps = ref 0 and ready = ref 0 in
  let make_ready v =
    stamped.(!stamps) <- v;
    fenwick_add tree !stamps 1;
    incr stamps;
    incr ready
  in
  for v = n - 1 downto 0 do
    if indegree.(v) = 0 then make_ready v
  done;
  let order = Array.make n 0 and ordered = ref 0 in
  while !ready > 0 do
    let stamp = fenwick_find tree (!ready - Rng.int rng !ready) in
    fenwick_add tree stamp (-1);
    decr ready;
    let v = stamped.(stamp) in
    order.(!ordered) <- v;
    incr ordered;
    List.iter
      (fun w ->
        indegree.(w) <- indegree.(w) - 1;
        if indegree.(w) = 0 then make_ready w)
      (Graph.succs g v)
  done;
  Array.iter (fun v -> link t v 0 (-1)) order;
  (* Move a random number of tasks, one by one, to the circuit; pack in
     topological order, opening a new context when the last one is
     full (the paper's initial-solution procedure). *)
  let target_hw = Rng.int rng (n + 1) in
  let shuffled = Array.init n Fun.id in
  Rng.shuffle_in_place rng shuffled;
  let chosen = Array.sub shuffled 0 target_hw in
  let limit = Platform.n_clb platform in
  let in_hw = Array.make n false in
  let pick_impl v =
    (* Random implementation variant, as the paper's initial solution
       leaves the area-time choice unoptimized; fall back to the
       smallest one when the draw does not fit the device. *)
    let task = App.task application v in
    let k = Rng.int rng (Task.impl_count task) in
    if (Task.impl task k).Task.clbs <= limit then k else 0
  in
  Array.iter
    (fun v ->
      write t t.impl v (pick_impl v);
      if task_clbs t v <= limit then in_hw.(v) <- true)
    chosen;
  (* Pack along the same topological order that the software schedule
     uses: a single linear order underlies the whole initial solution,
     so software edges, context packing and the context chain cannot
     disagree — the initial search graph is acyclic by construction.
     The contexts are built last first, with the last one's CLB total
     at hand, and put in execution order once. *)
  let packed = ref [] and last_clbs = ref 0 in
  Array.iter
    (fun v ->
      if in_hw.(v) then begin
        let clbs = task_clbs t v in
        unlink t v;
        match !packed with
        | (id, members) :: rest when !last_clbs + clbs <= limit ->
          write t t.assign v id;
          packed := (id, v :: members) :: rest;
          last_clbs := !last_clbs + clbs
        | _ :: _ | [] ->
          let id = fresh_id t in
          write t t.assign v id;
          packed := (id, [ v ]) :: !packed;
          last_clbs := clbs
      end)
    order;
  t.ctxs <- List.rev !packed;
  t

(* Ids [k..n-1] are free.  The guard keeps a malformed input (more
   contexts than tasks, necessarily some empty) from raising here: the
   invariant check rejects it. *)
let free_ids_after ~n ~k = List.init (max 0 (n - k)) (fun i -> k + i)

(* The structural invariants over the software orders given as lists:
   the constructors' input before it is linked, or the orders
   {!check_invariants} walked off the chains. *)
let invariant_problems t ~orders =
  let problems = ref [] in
  let note msg = problems := msg :: !problems in
  let n = size t in
  let limit = Platform.n_clb t.platform in
  (* Bindings agree with context membership. *)
  List.iter
    (fun (cid, members) ->
      if members = [] then note (Printf.sprintf "context %d empty" cid);
      List.iter
        (fun v ->
          if t.assign.(v) <> cid then
            note (Printf.sprintf "task %d in context %d but assigned %d" v cid
                    t.assign.(v)))
        members;
      if members_clbs t members > limit then
        note (Printf.sprintf "context %d exceeds capacity" cid))
    t.ctxs;
  (* Each hardware-assigned task appears in exactly one context. *)
  let occurrences = Array.make n 0 in
  List.iter
    (fun (_, members) ->
      List.iter (fun v -> occurrences.(v) <- occurrences.(v) + 1) members)
    t.ctxs;
  for v = 0 to n - 1 do
    let expected = if t.assign.(v) >= 0 then 1 else 0 in
    if occurrences.(v) <> expected then
      note (Printf.sprintf "task %d occurs %d times in contexts" v occurrences.(v));
    let k = t.impl.(v) in
    if k < 0 || k >= Task.impl_count (App.task t.app v) then
      note (Printf.sprintf "task %d: bad implementation index" v)
  done;
  (* Per-processor orders partition the software tasks. *)
  List.iteri
    (fun p order ->
      List.iter
        (fun v ->
          if t.assign.(v) <> -(p + 1) then
            note
              (Printf.sprintf "task %d listed on processor %d but assigned %d" v
                 p t.assign.(v)))
        order;
      if List.length (List.sort_uniq compare order) <> List.length order then
        note (Printf.sprintf "processor %d order has duplicates" p))
    orders;
  let sw_expected =
    List.sort compare (List.filter (fun v -> t.assign.(v) < 0) (List.init n Fun.id))
  in
  let sw_listed = List.sort compare (List.concat orders) in
  if sw_listed <> sw_expected then note "sw orders are not a partition";
  if List.length orders <> Platform.processor_count t.platform then
    note "processor order count differs from the platform";
  (* Context ids unique. *)
  let ids = List.map fst t.ctxs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    note "duplicate context ids";
  !problems

(* A constructor's result: the unlinked solution [t] with [orders]
   linked in, once they pass the invariants (a repeated task would
   corrupt a chain). *)
let linked ~what t orders =
  match invariant_problems t ~orders with
  | [] ->
    List.iteri (link_all t) orders;
    Ok t
  | ps -> Error (what ^ String.concat "; " ps)

(* Processor [p]'s chain walked from its head, each link checked
   against its successor's back link and the tail; the walk is bounded,
   so a cyclic chain is reported, not followed. *)
let walk_chain t p =
  let n = size t in
  let rec walk prev v steps acc =
    if v < 0 then
      if t.tail.(p) = prev then Ok (List.rev acc)
      else
        Error (Printf.sprintf "processor %d chain does not end at its tail" p)
    else if v >= n || steps >= n then
      Error (Printf.sprintf "processor %d chain is broken or cyclic" p)
    else if t.prev.(v) <> prev then
      Error
        (Printf.sprintf "processor %d chain: task %d links back to %d, not %d"
           p v t.prev.(v) prev)
    else walk v t.next.(v) (steps + 1) (v :: acc)
  in
  walk (-1) t.head.(p) 0 []

let check_invariants t =
  let chains = List.init (Array.length t.head) (walk_chain t) in
  let unlinked_hw =
    List.filter
      (fun v -> t.assign.(v) >= 0 && (t.next.(v) >= 0 || t.prev.(v) >= 0))
      (List.init (size t) Fun.id)
  in
  let problems =
    List.filter_map (function Error msg -> Some msg | Ok _ -> None) chains
    @ List.map (Printf.sprintf "hardware task %d is linked into a chain")
        unlinked_hw
  in
  let problems =
    if problems <> [] then problems
    else invariant_problems t ~orders:(List.map Result.get_ok chains)
  in
  match problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

let of_mapping application platform ~sw_orders ~contexts ~impl =
  let n = App.size application in
  let procs = Platform.processor_count platform in
  if List.length sw_orders <> procs then
    Error
      (Printf.sprintf "of_mapping: %d processor orders, platform has %d"
         (List.length sw_orders) procs)
  else if List.length impl <> n then
    Error
      (Printf.sprintf "of_mapping: %d implementation choices, %d tasks"
         (List.length impl) n)
  else begin
    let in_range v = v >= 0 && v < n in
    if
      not
        (List.for_all (List.for_all in_range) sw_orders
         && List.for_all (List.for_all in_range) contexts)
    then Error "of_mapping: task index out of range"
    else begin
      let assign = Array.make n min_int in
      let clash = ref None in
      let place v a =
        if assign.(v) <> min_int then clash := Some v else assign.(v) <- a
      in
      List.iteri
        (fun j members -> List.iter (fun v -> place v j) members)
        contexts;
      List.iteri
        (fun p order -> List.iter (fun v -> place v (-(p + 1))) order)
        sw_orders;
      match !clash with
      | Some v -> Error (Printf.sprintf "of_mapping: task %d placed twice" v)
      | None ->
        if Array.exists (fun a -> a = min_int) assign then
          Error "of_mapping: some task is neither scheduled nor in a context"
        else
          linked ~what:"of_mapping: "
            (unlinked application platform ~assign ~impl:(Array.of_list impl)
               ~ctxs:(List.mapi (fun j members -> (j, members)) contexts)
               ~free_ids:(free_ids_after ~n ~k:(List.length contexts)))
            sw_orders
    end
  end

(* --- textual codec (checkpoints) ---

   Context ids are renumbered to their positional index 0..k-1: ids are
   only compared for equality within one solution, so renumbering (with
   ids k..n-1 free) preserves every move's behaviour.  Member and order lists keep their exact element order —
   the proposal stream depends on it. *)

let encode t =
  let n = size t in
  let positional = Hashtbl.create 16 in
  List.iteri (fun j (id, _) -> Hashtbl.replace positional id j) t.ctxs;
  let b = Buffer.create 256 in
  let add_ints tag ints =
    Buffer.add_string b tag;
    List.iter
      (fun v ->
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int v))
      ints;
    Buffer.add_char b '\n'
  in
  add_ints "solution"
    [ n; Array.length t.head; List.length t.ctxs ];
  add_ints "assign"
    (List.init n (fun v ->
         let a = t.assign.(v) in
         if a < 0 then a else Hashtbl.find positional a));
  add_ints "impl" (Array.to_list t.impl);
  List.iter (add_ints "sw") (sw_orders t);
  List.iter (fun (_, members) -> add_ints "ctx" members) t.ctxs;
  Buffer.contents b

let decode application platform text =
  let ( let* ) = Result.bind in
  let ints_after tag line =
    match String.split_on_char ' ' line with
    | t :: rest when t = tag -> (
      let values = List.map int_of_string_opt rest in
      if List.for_all Option.is_some values then
        Ok (List.map Option.get values)
      else Error (Printf.sprintf "solution codec: bad %s line" tag))
    | _ -> Error (Printf.sprintf "solution codec: expected a %s line" tag)
  in
  let take_line = function
    | [] -> Error "solution codec: truncated"
    | line :: rest -> Ok (line, rest)
  in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  let* header, lines = take_line lines in
  let* dims = ints_after "solution" header in
  let* n, procs, k =
    match dims with
    | [ n; p; k ] when n >= 0 && p >= 1 && k >= 0 -> Ok (n, p, k)
    | _ -> Error "solution codec: bad header"
  in
  if n <> App.size application then
    Error
      (Printf.sprintf "solution codec: %d tasks, application has %d" n
         (App.size application))
  else if procs <> Platform.processor_count platform then
    Error
      (Printf.sprintf "solution codec: %d processors, platform has %d" procs
         (Platform.processor_count platform))
  else
    let* line, lines = take_line lines in
    let* assign = ints_after "assign" line in
    let* line, lines = take_line lines in
    let* impl = ints_after "impl" line in
    if List.length assign <> n || List.length impl <> n then
      Error "solution codec: wrong assign/impl arity"
    else
      let rec take_tagged tag count acc lines =
        if count = 0 then Ok (List.rev acc, lines)
        else
          let* line, lines = take_line lines in
          let* values = ints_after tag line in
          take_tagged tag (count - 1) (values :: acc) lines
      in
      let* sw_orders, lines = take_tagged "sw" procs [] lines in
      let* ctx_members, lines = take_tagged "ctx" k [] lines in
      match lines with
      | _ :: _ -> Error "solution codec: trailing lines"
      | [] -> (
        let in_range v = v >= 0 && v < n in
        if
          not
            (List.for_all (List.for_all in_range) sw_orders
             && List.for_all (List.for_all in_range) ctx_members
             && List.for_all (fun a -> a >= -procs && a < k) assign)
        then Error "solution codec: index out of range"
        else
          linked ~what:"solution codec: "
            (unlinked application platform ~assign:(Array.of_list assign)
               ~impl:(Array.of_list impl)
               ~ctxs:(List.mapi (fun j members -> (j, members)) ctx_members)
               ~free_ids:(free_ids_after ~n ~k))
            sw_orders)

let pp fmt t =
  let eval = evaluate t in
  Format.fprintf fmt "@[<v>solution: %d sw / %d hw tasks, %d context(s)@,"
    (size t - hw_count t)
    (hw_count t)
    (n_contexts t);
  (match eval with
   | Some e ->
     Format.fprintf fmt
       "makespan %.3f ms (reconfig %.3f + %.3f, comm %.3f)@," e.Searchgraph.makespan
       e.Searchgraph.initial_reconfig e.Searchgraph.dynamic_reconfig
       e.Searchgraph.comm
   | None -> Format.fprintf fmt "infeasible@,");
  List.iteri
    (fun p order ->
      Format.fprintf fmt "processor %d order: %a@," p
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
           Format.pp_print_int)
        order)
    (sw_orders t);
  List.iteri
    (fun j (_, members) ->
      Format.fprintf fmt "context %d (%d CLBs): %a@," (j + 1)
        (members_clbs t members)
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
           Format.pp_print_int)
        (List.sort compare members))
    t.ctxs;
  Format.fprintf fmt "@]"
