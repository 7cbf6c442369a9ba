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

(* Int-typed list lookups for the move path: the polymorphic [List.mem]
   and [List.assoc] pay a generic compare per cell. *)
let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> x = y || mem_int x rest

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

(* Incremental-evaluation state: a live search graph over n task nodes
   plus n configuration nodes, its longest-path solution (dynamic:
   edges are edited in place), and the bookkeeping that turns a
   structural mutation into an edge-delta set.  A context's id is in
   [0, n) and its configuration node is [n + id]; the nodes of free ids
   stay isolated (no edges, weight 0) and are excluded from the
   canonical evaluation.

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

   [desync] flags a move whose sequencing contradicts the application
   precedences (infeasible until undone).  A state that can no longer
   be trusted is dropped ([t.incr <- None]) and the next evaluation
   builds a new one.  The scratch fields ([scratch_tbl], [around])
   belong to the one solution that owns this state: restarts anneal on
   several domains, so nothing here may be shared between solutions. *)
type incr = {
  sg : Graph.t;
  lp : Longest_path.t;
  weights : float array;
  mutable pairs : int list;
  mutable pairs_fresh : bool;
  comm : Searchgraph.Comm.t;
  scratch_tbl : (int, int list) Hashtbl.t;
  (* reused by every context-membership diff — never live across moves *)
  around : int array;
  mutable around_stamp : int;
  (* task -> stamp of the last resync that put it around a disturbed
     software position: one O(1) test per chain cell *)
  mutable log : op array;
  mutable log_len : int;
  mutable epoch : int;             (* bumped when the log is truncated *)
  mutable dirty : int list;
  mutable desync : bool;
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
   Conchon and Filliâtre's persistent arrays, over the [assign] and
   [impl] arrays together.  The live arrays are the state of the root
   version (the one whose [next] is itself); any other version [v] is
   [v.next]'s state with [v.arr.(v.idx) = v.old].  A write turns the
   root into such a diff and starts a fresh root; [save] keeps the
   current root; the undo reroots the chain at the saved version,
   reversing the diffs on the way, so undos in any order restore the
   exact arrays. *)
type version = {
  mutable arr : int array;
  mutable idx : int;
  mutable old : int;
  mutable next : version;
}

let fresh_root () =
  let rec root = { arr = [||]; idx = 0; old = 0; next = root } in
  root

(* Make [v] the root: apply the diffs between it and the root, nearest
   the root first, each reversed so that the old root can come back.
   The path is collected by a tail-recursive walk: an undo may span
   any number of writes. *)
let reroot v =
  let rec path acc v = if v.next == v then acc else path (v :: acc) v.next in
  List.iter
    (fun d ->
      let root = d.next and arr = d.arr and i = d.idx in
      root.arr <- arr;
      root.idx <- i;
      root.old <- arr.(i);
      root.next <- d;
      arr.(i) <- d.old;
      d.arr <- [||];
      d.next <- d)
    (path [] v)

(* assign.(v) = -(p+1) when the task runs in software on processor p
   (so -1 is the primary processor), otherwise the stable id (>= 0) of
   its context.  Stable ids survive context insertions and removals;
   the execution order of contexts is the order of the [contexts]
   association list.  [sw.(p)] is the execution order of processor p.
   Contexts are never empty, so n ids suffice: [free_ids] holds the ids
   in [0, n) no context uses.  Like [ctxs] it is an immutable list, so
   saving and restoring it is a pointer copy. *)
type t = {
  app : App.t;
  clo : Closure.t;
  mutable platform : Platform.t;
  assign : int array;
  impl : int array;
  mutable version : version;  (* root of the [assign]/[impl] chain *)
  mutable sw : int list array;
  mutable ctxs : (int * int list) list;
  mutable free_ids : int list;
  mutable cached : cache;
  mutable incr : incr option;
  mutable last_kind : move_kind;
  stats : eval_stats;
}

(* Every write to [assign] and [impl] goes through here, recording the
   old value on the chain. *)
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

let app t = t.app
let platform t = t.platform
let closure t = t.clo
let size t = App.size t.app

(* Drop the live search graph: the next evaluation builds a new one. *)
let invalidate t =
  t.cached <- Stale;
  t.incr <- None

let eval_stats t = t.stats

(* Shared closures are computed once per application and reused by
   copies; a weak-keyed cache would be overkill here. *)
let closure_of_app application = Closure.of_graph application.App.graph

let all_software application platform =
  let n = App.size application in
  let order = Array.to_list (App.topological_order application) in
  let processors = Platform.processor_count platform in
  let sw = Array.make processors [] in
  sw.(0) <- order;
  {
    app = application;
    clo = closure_of_app application;
    platform;
    assign = Array.make n (-1);
    impl = Array.make n 0;
    version = fresh_root ();
    sw;
    ctxs = [];
    free_ids = List.init n Fun.id;
    cached = Stale;
    incr = None;
    last_kind = Init;
    stats = fresh_stats ();
  }

(* Copies never share the incremental state: it tracks one solution's
   mutations and would be corrupted by a sibling's.  The stats record
   stays shared so a solution and its snapshots count together, and the
   cache is copied as is (a settled copy builds its record from the
   spec, see [evaluate]). *)
let copy t =
  {
    t with
    assign = Array.copy t.assign;
    impl = Array.copy t.impl;
    version = fresh_root ();
    sw = Array.copy t.sw;
    cached = t.cached;
    incr = None;
  }

let snapshot = copy

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
  done

(* Undo closures outliving this many log entries are long dead (undo is
   LIFO and one-shot), so [save] resets the log once it grows past the
   threshold. *)
let log_truncate_threshold = 8192

let save t =
  let version = t.version in
  let sw = Array.copy t.sw in
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
      Some (inc, inc.epoch, inc.log_len)
    | Some _ | None -> None
  in
  fun () ->
    (* The incremental state rolls its delta log back to the save
       point when it is still the same generation; any mismatch (a
       rebuild happened in between, the log was truncated, undos ran
       out of order) drops it — the solution arrays are restored
       either way. *)
    (match (t.incr, mark) with
     | Some inc, Some (saved, epoch, len)
       when inc == saved && inc.epoch = epoch && inc.log_len >= len ->
       rollback t.app inc ~mark:len;
       inc.desync <- false
     | Some _, _ -> t.incr <- None
     | None, _ -> ());
    reroot version;
    t.version <- version;
    t.sw <- Array.copy sw;
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

let impl_index t v = t.impl.(v)
let sw_order t = t.sw.(0)
let sw_orders t = Array.to_list t.sw
let contexts t = List.map snd t.ctxs
let n_contexts t = List.length t.ctxs

let hw_tasks t =
  List.filter (fun v -> t.assign.(v) >= 0) (List.init (size t) Fun.id)

let hw_count t =
  let count = ref 0 in
  Array.iter (fun a -> if a >= 0 then incr count) t.assign;
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

let members_clbs t members =
  List.fold_left (fun acc v -> acc + task_clbs t v) 0 members

let context_clbs t j =
  match List.nth_opt t.ctxs j with
  | Some (_, members) -> members_clbs t members
  | None -> invalid_arg "Solution.context_clbs: no such context"

let spec t =
  {
    Searchgraph.app = t.app;
    platform = t.platform;
    binding = binding t;
    impl_choice = (fun v -> t.impl.(v));
    sw_order = t.sw.(0);
    contexts = List.map snd t.ctxs;
    proc_of =
      (fun v -> if t.assign.(v) < 0 then -t.assign.(v) - 1 else 0);
    extra_sw_orders = List.tl (Array.to_list t.sw);
  }

let capacity_ok t =
  let limit = Platform.n_clb t.platform in
  List.for_all (fun (_, members) -> members_clbs t members <= limit) t.ctxs

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

(* Pairs are packed into a single int (u·2n+v) and sorted with the int
   comparator: this runs once per structural move, and a polymorphic
   sort over boxed tuples would cost as much as the full rebuild it
   replaces. *)
let pack_pairs t pairs =
  let stride = 2 * size t in
  List.sort Int.compare (List.map (fun (u, v) -> (u * stride) + v) pairs)

(* The canonical dynamic pair list (Esw ∪ Ehw) the live graph must
   realize for the current solution state, configuration nodes at
   [n + id]. *)
let sequencing_pairs t =
  let n = size t in
  let cfg = Array.of_list (List.map (fun (cid, _) -> n + cid) t.ctxs) in
  Searchgraph.sequencing_pairs
    ~cfg:(fun j -> cfg.(j))
    ~sw_order:t.sw.(0)
    ~extra_sw_orders:(List.tl (Array.to_list t.sw))
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

(* The per-move pair capture over the context chain: walk the list
   once, running the intra emitter for every context in the region and
   the GTLP emitter for every adjacency with an endpoint in it.
   Contexts outside the region contribute only an O(1) id test —
   their member lists are never traversed. *)
let capture_ctx_pairs n in_region ctxs =
  let cfg cid = n + cid in
  let rec walk prev acc = function
    | [] -> acc
    | (cid, members) :: rest ->
      let acc =
        match prev with
        | Some (prev_id, prev_members)
          when in_region prev_id || in_region cid ->
          Searchgraph.gtlp_pairs ~prev_cfg:(cfg prev_id) ~prev_members
            ~cfg:(cfg cid)
          @ acc
        | Some _ | None -> acc
      in
      let acc =
        if in_region cid then
          Searchgraph.ehw_intra_pairs ~cfg:(cfg cid) members @ acc
        else acc
      in
      walk (Some (cid, members)) acc rest
  in
  walk None [] ctxs

(* Consecutive (prev, next) neighbors of the selected tasks in a
   software order — the tasks whose Esw adjacencies a removal or an
   insertion at that position disturbs. *)
let chain_neighbors order targets =
  let rec walk prev acc = function
    | [] -> acc
    | v :: rest ->
      let acc =
        if mem_int v targets then begin
          let acc = match prev with Some p -> p :: acc | None -> acc in
          match rest with nx :: _ -> nx :: acc | [] -> acc
        end
        else acc
      in
      walk (Some v) acc rest
  in
  walk None [] order

(* Consecutive context-id pairs of the execution order. *)
let ctx_adjacencies ctxs =
  let rec walk acc = function
    | (a, _) :: ((b, _) :: _ as rest) -> walk ((a, b) :: acc) rest
    | [ _ ] | [] -> acc
  in
  walk [] ctxs

(* Symmetric difference of two lists of int pairs, sorted here with a
   monomorphic comparator (the lists are tiny — the context adjacencies
   a move disturbed — but this runs on every structural move). *)
let sym_diff_pairs a b =
  let cmp (a1, b1) (a2, b2) =
    if a1 = (a2 : int) then Int.compare b1 b2 else Int.compare a1 a2
  in
  let rec walk a b =
    match (a, b) with
    | [], r | r, [] -> r
    | x :: xs, y :: ys ->
      let c = cmp x y in
      if c = 0 then walk xs ys
      else if c < 0 then x :: walk xs b
      else y :: walk a ys
  in
  walk (List.sort cmp a) (List.sort cmp b)

(* Re-synchronize the live search graph with a mutated solution from
   the move's own footprint — no global pair-list regeneration.  The
   mutator hands over its pre-move snapshots ([old_sw] is a copy of
   the order array, [old_ctxs] the context association list — both
   hold immutable lists, so snapshotting is pointer copying), the
   tasks whose binding changed ([rebound]) and the tasks around the
   disturbed software positions ([sw_around]).

   The touched region is derived by comparing the snapshots with the
   mutated state: chains that changed (pointer inequality), contexts
   whose member list changed, contexts created or removed, and both
   endpoints of every context adjacency that appeared or disappeared.
   The per-class emitters ([Searchgraph.chain_pairs_near],
   [ehw_intra_pairs], [gtlp_pairs]) then produce the pairs owned by
   the region before and after the mutation; their sorted-packed diff
   is the move's exact edge delta, because pairs owned by emitters
   outside the region are untouched by construction (the ownership
   contract) and pairs the region captures on both sides cancel.

   The delta is applied as edge deletions then insertions in packed
   order — the same canonical order the regenerate-and-diff path
   produced, so the downstream [Longest_path] edits are unchanged.
   Each intermediate edge set is a subset of the union of two acyclic
   sets realized over the same order-maintained graph, so a genuine
   cycle is detected by some insertion failing — never spuriously.
   Weights are re-read for rebound tasks and touched contexts only,
   and the boundary-traffic sum tree is patched by flipping the terms
   of the edges incident to rebound tasks.

   Under [REPRO_CHECK_DELTAS] the canonical list is additionally
   regenerated and the emitted delta asserted against the
   regenerate-and-diff reference. *)
let native_resync t kind ~rebound ~sw_around ~old_sw ~old_ctxs =
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
    (* 1. The move's footprint, from the snapshots. *)
    let changed_procs =
      let acc = ref [] in
      for p = Array.length t.sw - 1 downto 0 do
        if not (t.sw.(p) == old_sw.(p)) then acc := p :: !acc
      done;
      !acc
    in
    (* Pointer equality of the association lists means the move never
       touched the context chain: every context diff below is empty and
       the captures reduce to the disturbed software adjacencies. *)
    let ctx_changed = not (old_ctxs == t.ctxs) in
    let freed, touched_ctxs =
      if not ctx_changed then ([], [])
      else begin
        (* One pass over each list through the reused scratch table:
           old members keyed by id, then the new list classifies every
           context as created or membership-changed (both touched), or
           intact — what stays unclaimed in the table was freed. *)
        let old_tbl = inc.scratch_tbl in
        Hashtbl.reset old_tbl;
        List.iter (fun (cid, ms) -> Hashtbl.replace old_tbl cid ms) old_ctxs;
        let touched = ref [] in
        List.iter
          (fun (cid, ms) ->
            match Hashtbl.find_opt old_tbl cid with
            | None -> touched := (cid, ms) :: !touched
            | Some old_ms ->
              Hashtbl.remove old_tbl cid;
              if not (old_ms == ms || List.equal Int.equal old_ms ms) then
                touched := (cid, ms) :: !touched)
          t.ctxs;
        let freed =
          List.filter (fun (cid, _) -> Hashtbl.mem old_tbl cid) old_ctxs
        in
        (freed, List.rev !touched)
      end
    in
    let region =
      if not ctx_changed then []
      else
        let adj_endpoints =
          List.concat_map
            (fun (a, b) -> [ a; b ])
            (sym_diff_pairs (ctx_adjacencies old_ctxs)
               (ctx_adjacencies t.ctxs))
        in
        List.sort_uniq Int.compare
          (List.map fst touched_ctxs
           @ List.map fst freed
           @ adj_endpoints)
    in
    let in_region cid = mem_int cid region in
    inc.around_stamp <- inc.around_stamp + 1;
    let stamp = inc.around_stamp in
    List.iter (fun v -> inc.around.(v) <- stamp) sw_around;
    let around v = inc.around.(v) = stamp in
    (* 2. Before- and after-pairs, from the snapshots and from the
       mutated state; their sorted diff is the move's exact edge
       delta. *)
    let captured sw ctxs =
      List.concat_map
        (fun p -> Searchgraph.chain_pairs_near around sw.(p))
        changed_procs
      @ (if region = [] then [] else capture_ctx_pairs n in_region ctxs)
    in
    let before_pairs = captured old_sw old_ctxs in
    let after_pairs = captured t.sw t.ctxs in
    let before_packed = pack_pairs t before_pairs in
    let after_packed = pack_pairs t after_pairs in
    let removals = diff_sorted before_packed after_packed in
    let additions = diff_sorted after_packed before_packed in
    let emitted = List.length before_pairs + List.length after_pairs in
    t.stats.pairs_emitted <- t.stats.pairs_emitted + emitted;
    ks.k_pairs_emitted <- ks.k_pairs_emitted + emitted;
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
           if not (Graph.has_edge inc.sg u v) then
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
      List.iter
        (fun (cid, members) ->
          set_weight inc (n + cid)
            (Platform.reconfiguration_time t.platform (members_clbs t members)))
        touched_ctxs;
      List.iter (fun (cid, _) -> set_weight inc (n + cid) 0.0) freed;
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

(* The makespan straight off the live finish array.  The nodes of free
   ids are isolated and of weight 0, so they finish at 0 and leave the
   maximum over the canonical nodes unchanged. *)
let settled inc = Settled (Longest_path.makespan inc.lp)

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
  List.iter
    (fun (cid, members) ->
      weights.(n + cid) <-
        Platform.reconfiguration_time t.platform (members_clbs t members))
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
    t.stats.full_evals <- t.stats.full_evals + 1;
    t.stats.full_nodes <- t.stats.full_nodes + n + k;
    (kind_stats t.stats t.last_kind).k_full_evals <-
      (kind_stats t.stats t.last_kind).k_full_evals + 1;
    let inc =
      {
        sg = g;
        lp;
        weights;
        (* The canonical pair cache is a verification artifact: seed it
           only when the paranoid cross-check will read it. *)
        pairs = (if !check_deltas then pack_pairs t pairs_raw else []);
        pairs_fresh = !check_deltas;
        comm;
        scratch_tbl = Hashtbl.create 16;
        around = Array.make n 0;
        around_stamp = 0;
        log = [||];
        log_len = 0;
        epoch = 0;
        dirty = [];
        desync = false;
      }
    in
    t.incr <- Some inc;
    settled inc

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
  settled inc

(* Bring the cache up to date — it is never [Stale] afterwards: refresh
   the live graph's dirty cones (or rebuild it) and read the makespan.
   This is all a move costs to judge; the evaluation record waits for
   [evaluate]. *)
let settle t =
  (match t.cached with
   | Stale ->
     t.cached <-
       (match t.incr with
        | Some inc ->
          if inc.desync || not (capacity_ok t) then Evaluated None
          else evaluate_incremental t inc
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
      if t.assign.(v) >= 0 then begin
        let members = assoc_int t.assign.(v) t.ctxs in
        set_weight inc (size t + t.assign.(v))
          (Platform.reconfiguration_time t.platform (members_clbs t members))
      end
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

let insert_before x (before : int) list =
  let rec walk = function
    | [] -> [ x ]
    | y :: rest -> if y = before then x :: y :: rest else y :: walk rest
  in
  walk list

let detach t task =
  if t.assign.(task) >= 0 then remove_from_context t task
  else begin
    let p = processor_index t task in
    t.sw.(p) <- List.filter (fun w -> w <> task) t.sw.(p)
  end

(* The tasks around the software positions a move disturbs: the moved
   task, its chain neighbors at the source, and the insertion point's
   old predecessor (or the old tail when appending). *)
let sw_departure_around t task =
  if t.assign.(task) < 0 then
    task :: chain_neighbors t.sw.(processor_index t task) [ task ]
  else [ task ]

let move_to_sw ?(proc = 0) t ~task ~before =
  if proc < 0 || proc >= Array.length t.sw then
    invalid_arg "Solution.move_to_sw: no such processor";
  if t.assign.(task) < 0 && processor_index t task = proc then
    invalid_arg "Solution.move_to_sw: task already on that processor";
  let old_sw = Array.copy t.sw in
  let old_ctxs = t.ctxs in
  let sw_around =
    sw_departure_around t task
    @
    match before with
    | Some anchor -> anchor :: chain_neighbors t.sw.(proc) [ anchor ]
    | None ->
      (match List.rev t.sw.(proc) with last :: _ -> [ last ] | [] -> [])
  in
  detach t task;
  write t t.assign task (-(proc + 1));
  (match before with
   | None -> t.sw.(proc) <- t.sw.(proc) @ [ task ]
   | Some anchor ->
     if not (mem_int anchor t.sw.(proc)) then
       invalid_arg "Solution.move_to_sw: anchor not in that processor's order";
     t.sw.(proc) <- insert_before task anchor t.sw.(proc));
  native_resync t Sw_migrate ~rebound:[ task ] ~sw_around ~old_sw ~old_ctxs

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
  let old_sw = Array.copy t.sw in
  let old_ctxs = t.ctxs in
  let sw_around = sw_departure_around t task in
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
  native_resync t Ctx_migrate ~rebound:[ task ] ~sw_around ~old_sw ~old_ctxs

let insert_context t ~task ~at =
  let k = List.length t.ctxs in
  if at < 0 || at > k then invalid_arg "Solution.insert_context: bad position";
  let old_sw = Array.copy t.sw in
  let old_ctxs = t.ctxs in
  let sw_around = sw_departure_around t task in
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
  native_resync t Ctx_create ~rebound:[ task ] ~sw_around ~old_sw ~old_ctxs

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
  let old_sw = t.sw and old_ctxs = t.ctxs in
  t.ctxs <- swap 0 t.ctxs;
  native_resync t Ctx_swap ~rebound:[] ~sw_around:[] ~old_sw ~old_ctxs

let reorder_sw t ~task ~before =
  if t.assign.(task) >= 0 || t.assign.(before) >= 0 then
    invalid_arg "Solution.reorder_sw: both tasks must be in software";
  let p = processor_index t task in
  if processor_index t before <> p then
    invalid_arg "Solution.reorder_sw: tasks on different processors";
  if task <> before then begin
    let old_sw = Array.copy t.sw in
    let old_ctxs = t.ctxs in
    let sw_around =
      task :: before :: chain_neighbors t.sw.(p) [ task; before ]
    in
    t.sw.(p) <-
      insert_before task before (List.filter (fun w -> w <> task) t.sw.(p));
    native_resync t Sw_reorder ~rebound:[] ~sw_around ~old_sw ~old_ctxs
  end

let replace_platform t platform =
  if Platform.processor_count platform <> Array.length t.sw then
    invalid_arg
      "Solution.replace_platform: platforms must have the same number of \
       processors";
  t.platform <- platform;
  t.last_kind <- Platform_swap;
  (* Every weight and transfer time may change: rebuild. *)
  invalidate t

let random rng application platform =
  let t = all_software application platform in
  let n = App.size application in
  (* Randomized precedence-consistent software order: Kahn with random
     ready choice. *)
  let g = application.App.graph in
  let indegree = Array.init n (fun v -> Graph.in_degree g v) in
  let ready = ref (List.filter (fun v -> indegree.(v) = 0) (List.init n Fun.id)) in
  let order = ref [] in
  while !ready <> [] do
    let arr = Array.of_list !ready in
    let v = Rng.choice rng arr in
    ready := List.filter (fun w -> w <> v) !ready;
    order := v :: !order;
    List.iter
      (fun w ->
        indegree.(w) <- indegree.(w) - 1;
        if indegree.(w) = 0 then ready := w :: !ready)
      (Graph.succs g v)
  done;
  let random_topological_order = List.rev !order in
  t.sw.(0) <- random_topological_order;
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
     disagree — the initial search graph is acyclic by construction. *)
  let topo = Array.of_list random_topological_order in
  Array.iter
    (fun v ->
      if in_hw.(v) then begin
        match List.rev t.ctxs with
        | (last_id, members) :: _
          when members_clbs t members + task_clbs t v <= limit ->
          t.sw.(0) <- List.filter (fun w -> w <> v) t.sw.(0);
          write t t.assign v last_id;
          t.ctxs <-
            List.map
              (fun (cid, ms) -> if cid = last_id then (cid, v :: ms) else (cid, ms))
              t.ctxs
        | _ :: _ | [] -> append_context t ~task:v
      end)
    topo;
  (* [append_context] stamps its own kind: the first evaluation of the
     initial solution is booked under [Init]. *)
  t.last_kind <- Init;
  t

(* Ids [k..n-1] are free.  The guard keeps a malformed input (more
   contexts than tasks, necessarily some empty) from raising here: the
   invariant check rejects it. *)
let free_ids_after ~n ~k = List.init (max 0 (n - k)) (fun i -> k + i)

let rec of_mapping application platform ~sw_orders ~contexts ~impl =
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
        else begin
          let t =
            {
              app = application;
              clo = closure_of_app application;
              platform;
              assign;
              impl = Array.of_list impl;
              version = fresh_root ();
              sw = Array.of_list sw_orders;
              ctxs = List.mapi (fun j members -> (j, members)) contexts;
              free_ids = free_ids_after ~n ~k:(List.length contexts);
              cached = Stale;
              incr = None;
              last_kind = Init;
              stats = fresh_stats ();
            }
          in
          match check_invariants t with
          | Ok () -> Ok t
          | Error msg -> Error ("of_mapping: " ^ msg)
        end
    end
  end

and check_invariants t =
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
  Array.iteri
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
    t.sw;
  let sw_expected =
    List.sort compare (List.filter (fun v -> t.assign.(v) < 0) (List.init n Fun.id))
  in
  let sw_listed = List.sort compare (List.concat (Array.to_list t.sw)) in
  if sw_listed <> sw_expected then note "sw orders are not a partition";
  if Array.length t.sw <> Platform.processor_count t.platform then
    note "processor order count differs from the platform";
  (* Context ids unique. *)
  let ids = List.map fst t.ctxs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    note "duplicate context ids";
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

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
    [ n; Array.length t.sw; List.length t.ctxs ];
  add_ints "assign"
    (List.init n (fun v ->
         let a = t.assign.(v) in
         if a < 0 then a else Hashtbl.find positional a));
  add_ints "impl" (Array.to_list t.impl);
  Array.iter (fun order -> add_ints "sw" order) t.sw;
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
        else begin
          let t =
            {
              app = application;
              clo = closure_of_app application;
              platform;
              assign = Array.of_list assign;
              impl = Array.of_list impl;
              version = fresh_root ();
              sw = Array.of_list sw_orders;
              ctxs = List.mapi (fun j members -> (j, members)) ctx_members;
              free_ids = free_ids_after ~n ~k;
              cached = Stale;
              incr = None;
              last_kind = Init;
              stats = fresh_stats ();
            }
          in
          match check_invariants t with
          | Ok () -> Ok t
          | Error msg -> Error ("solution codec: " ^ msg)
        end)

let pp fmt t =
  let eval = evaluate t in
  Format.fprintf fmt "@[<v>solution: %d sw / %d hw tasks, %d context(s)@,"
    (Array.fold_left (fun acc order -> acc + List.length order) 0 t.sw)
    (hw_count t)
    (n_contexts t);
  (match eval with
   | Some e ->
     Format.fprintf fmt
       "makespan %.3f ms (reconfig %.3f + %.3f, comm %.3f)@," e.Searchgraph.makespan
       e.Searchgraph.initial_reconfig e.Searchgraph.dynamic_reconfig
       e.Searchgraph.comm
   | None -> Format.fprintf fmt "infeasible@,");
  Array.iteri
    (fun p order ->
      Format.fprintf fmt "processor %d order: %a@," p
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
           Format.pp_print_int)
        order)
    t.sw;
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
