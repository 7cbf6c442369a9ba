open Repro_taskgraph
open Repro_arch
open Repro_sched
module Rng = Repro_util.Rng

(* The move vocabulary, for attribution of evaluation work: every
   mutator stamps the solution with the kind of the last mutation, and
   the next evaluation books its cost (a full or a partial pass, and
   the nodes it passed) against that kind. *)
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

(* Paranoid cross-checking: compare every refilled kernel with a full
   fill, every pass with a full pass over it and every settle with
   [Searchgraph.evaluate].  Read once from the environment
   ([REPRO_CHECK_DELTAS=1]); tests toggle it in-process. *)
let check_deltas =
  ref
    (match Sys.getenv_opt "REPRO_CHECK_DELTAS" with
     | Some ("1" | "true" | "yes") -> true
     | Some _ | None -> false)

let set_check_deltas enabled = check_deltas := enabled
let check_deltas_enabled () = !check_deltas

(* What the solution knows about its own evaluation.  [Settled m]: the
   state is feasible with makespan [m], and the evaluation record has
   not been built — the move path reads only the makespan.
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

(* The evaluator: the search graph is never built; each settle brings
   the arrays of one {!Searchgraph.Flat} kernel to the solution's state
   and runs the pass from the first node that changed.  The fill
   refills only what changed since the last one: every write to
   [assign], [impl] and the chain links is a diff on the version chain,
   so the path from [filled_at] to the root names exactly the positions
   that differ ({!refill}).  Each entry it rewrites is compared with
   the one it replaces: a changed node (its time, its in-edges or
   their weights) lowers [low] to its position in the last pass's
   order, and an added edge that runs backward in that order widens
   the window [lo, hi] between its ends.  It reads tables, not the application: the implementations'
   from {!App.impl_table}, the platform's ones read once from
   [tables_for]; the record is rebuilt, with a full fill, when the
   solution's platform is another one ({!replace_platform}, or an undo
   across it).  It belongs to one solution: copies start without
   one. *)
type flat = {
  kernel : Searchgraph.Flat.t;
  tables_for : Platform.t;
  sw_time : float array;   (* p * n + v: task v's time on processor p *)
  transfer : float array;  (* application edge: its transfer time *)
  src : int array;         (* application edge: its source *)
  per_clb : float;         (* the device's reconfiguration time per CLB *)
  n_clb : int;             (* the device's CLBs *)
  impls : App.impl_table;  (* hardware time and CLBs per implementation *)
  mutable filled_at : version;  (* the kernel's state; [live]: none yet *)
  mutable placed : (int * int list) list;  (* the contexts it holds *)
  mutable fits : bool;     (* and whether each is within [n_clb] *)
  mutable low : int;       (* the least position changed since the pass *)
  mutable lo : int;        (* the positions that edges added since run *)
  mutable hi : int;        (* backward between, or [lo > hi] *)
  mutable full : bool;     (* the next pass starts at position 0 *)
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

(* Drop the cache and the flat record: the next evaluation fills a new
   kernel and runs a full pass. *)
let invalidate t =
  t.cached <- Stale;
  t.flat <- None

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

(* Copies never share the flat kernel: it is scratch space that
   restarts on several domains would overwrite under each other.  The
   stats record stays shared so a solution and its copies count
   together, and the cache is copied as is (a settled copy builds its
   record from the spec, see [evaluate]). *)
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
    flat = None;
  }

let save t =
  let version = t.version in
  let ctxs = t.ctxs in
  let free_ids = t.free_ids in
  let cached = t.cached in
  let platform = t.platform in
  let last_kind = t.last_kind in
  fun () ->
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

(* [Searchgraph.resource_code] read off the assignment array directly:
   [assign.(v)] is already -(p+1) for software on processor p, and any
   context id (>= 0) is the reconfigurable circuit, code 0.  Solutions
   never bind tasks to an ASIC, so the coding is complete. *)
let crossing_of t u v =
  let code a = if a < 0 then a else 0 in
  code t.assign.(u) <> code t.assign.(v)

(* Book one pass over [nodes] search-graph nodes against the kind of
   the mutation before it: a full one, or one restarted after the
   unchanged prefix of the last pass. *)
let book_full t nodes =
  t.stats.full_evals <- t.stats.full_evals + 1;
  t.stats.full_nodes <- t.stats.full_nodes + nodes;
  let ks = kind_stats t.stats t.last_kind in
  ks.k_full_evals <- ks.k_full_evals + 1

let book_partial t nodes =
  t.stats.incr_evals <- t.stats.incr_evals + 1;
  t.stats.incr_nodes <- t.stats.incr_nodes + nodes;
  let ks = kind_stats t.stats t.last_kind in
  ks.k_incr_evals <- ks.k_incr_evals + 1;
  ks.k_incr_nodes <- ks.k_incr_nodes + nodes

(* The flat evaluator for the current platform, built on first use
   and after a platform change. *)
let flat_of t =
  match t.flat with
  | Some f when f.tables_for == t.platform -> f
  | Some _ | None ->
    let app = t.app and platform = t.platform and n = size t in
    let m = App.edge_count app in
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
        src = Array.init m (fun e -> (App.edge app e).App.src);
        (* [Platform.reconfiguration_time] is this times the CLBs. *)
        per_clb = Platform.reconfiguration_time platform 1;
        n_clb = Platform.n_clb platform;
        impls = App.impl_table app;
        filled_at = live;
        placed = [];
        fits = false;
        low = max_int;
        lo = max_int;
        hi = -1;
        full = true;
      }
    in
    t.flat <- Some f;
    f

(* Node [x] changed: the next pass restarts no later than its position
   in the last one.  Marking a node that did not change only costs the
   pass time. *)
let mark f x =
  let p = f.kernel.Searchgraph.Flat.position.(x) in
  if p < f.low then f.low <- p
[@@inline]

(* An edge [u -> x] added: when it runs backward in the last pass's
   order, the next pass re-sorts the positions between its ends. *)
let added f u x =
  let position = f.kernel.Searchgraph.Flat.position in
  let pu = position.(u) and px = position.(x) in
  if pu > px then begin
    if px < f.lo then f.lo <- px;
    if pu > f.hi then f.hi <- pu
  end
[@@inline]

(* Whether the chain link [v -> w] repeats an application edge: a scan
   of [v]'s successors, in increasing id. *)
let app_edge app v w =
  let outs = App.out_edges app in
  let rec scan s =
    s < outs.App.start.(v + 1)
    && (let d = outs.App.node.(s) in
        d = w || (d < w && scan (s + 1)))
  in
  scan outs.App.start.(v)

(* Point [v]'s chain link at [w] (-1: none), [prev_sw] kept its
   inverse; the old and the new target change in-edges. *)
let relink f (k : Searchgraph.Flat.t) v w =
  let old = k.next_sw.(v) in
  if old <> w then begin
    if old >= 0 then begin
      if k.prev_sw.(old) = v then k.prev_sw.(old) <- -1;
      mark f old
    end;
    if w >= 0 then begin
      k.prev_sw.(w) <- v;
      mark f w;
      added f v w
    end;
    k.next_sw.(v) <- w
  end

(* Put task [v] in the context at position [j] (-1: software): it and
   the configuration nodes after its old and its new context change
   in-edges. *)
let enter f (k : Searchgraph.Flat.t) n v j =
  let old = k.context.(v) in
  if old <> j then begin
    if old >= 0 && old + 1 < k.n_contexts then mark f (n + old + 1);
    if j >= 0 && j < k.n_contexts then added f (n + j) v;
    if j >= 0 && j + 1 < k.n_contexts then begin
      mark f (n + j + 1);
      added f v (n + j + 1)
    end;
    mark f v;
    k.context.(v) <- j
  end

(* The fill, shared by the full one and the refill along the version
   chain.  Task [v]'s entries: its execution time, its chain link (one
   that repeats an application edge is left out, as in
   [Searchgraph.flat]) and, in software, its context -1; a hardware
   task's context comes with the placement. *)
let fill_task f (k : Searchgraph.Flat.t) t n v =
  let a = t.assign.(v) in
  let exec =
    if a < 0 then f.sw_time.(((-a - 1) * n) + v)
    else f.impls.hw_time.(f.impls.first.(v) + t.impl.(v))
  in
  if exec <> k.exec.(v) then begin
    k.exec.(v) <- exec;
    mark f v
  end;
  if a < 0 then begin
    let w = t.next.(v) in
    relink f k v (if w >= 0 && not (app_edge t.app v w) then w else -1);
    enter f k n v (-1)
  end
  else relink f k v (-1)

(* Application edge [e]'s weight: its transfer time when it crosses. *)
let fill_edge f (k : Searchgraph.Flat.t) t e =
  let w = if crossing_of t f.src.(e) k.dst.(e) then f.transfer.(e) else 0.0 in
  if w <> k.weight.(e) then begin
    k.weight.(e) <- w;
    mark f k.dst.(e)
  end

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
let rec place_members f (k : Searchgraph.Flat.t) t n j i clbs = function
  | [] ->
    k.ctx_start.(j + 1) <- i;
    clbs
  | v :: rest ->
    enter f k n v j;
    k.ctx_member.(i) <- v;
    place_members f k t n j (i + 1)
      (clbs + f.impls.clbs.(f.impls.first.(v) + t.impl.(v)))
      rest

(* The contexts from position [j] on, with their configuration times and
   count: whether each is within the device.  A new count renumbers the
   configuration nodes, so the next pass is a full one. *)
let rec place_contexts f (k : Searchgraph.Flat.t) t n j fits = function
  | [] ->
    if j <> k.n_contexts then begin
      k.n_contexts <- j;
      f.full <- true
    end;
    fits
  | (_, members) :: rest ->
    let clbs = place_members f k t n j k.ctx_start.(j) 0 members in
    let cfg = f.per_clb *. float_of_int clbs in
    if cfg <> k.cfg_time.(j) then begin
      k.cfg_time.(j) <- cfg;
      mark f (n + j)
    end;
    place_contexts f k t n (j + 1) (fits && clbs <= f.n_clb) rest

(* Every entry of kernel [k], the links unset first: whether the
   contexts fit.  The next pass is a full one. *)
let fill_all f (k : Searchgraph.Flat.t) t =
  let n = size t in
  f.full <- true;
  Array.fill k.next_sw 0 n (-1);
  Array.fill k.prev_sw 0 n (-1);
  for v = 0 to n - 1 do
    fill_task f k t n v
  done;
  for e = 0 to Array.length f.src - 1 do
    fill_edge f k t e
  done;
  place_contexts f k t n 0 true t.ctxs

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
    f.fits <- place_contexts f k t n 0 true t.ctxs;
  f.placed <- t.ctxs;
  f.filled_at <- t.version

(* Paranoid mode: the refilled kernel must hold what a full fill into
   fresh arrays does; that reference kernel is returned for the pass's
   check.  Its fill leaves the record's marks as they were. *)
let check_refill f t =
  let k = f.kernel and n = size t in
  let full = Searchgraph.Flat.create t.app ~contexts:n ~members:n in
  let low = f.low and lo = f.lo and hi = f.hi and forced = f.full in
  let fits = fill_all f full t in
  f.low <- low;
  f.lo <- lo;
  f.hi <- hi;
  f.full <- forced;
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
      && same Int.equal full.prev_sw k.prev_sw n
      && same Int.equal full.context k.context n
      && same bits full.weight k.weight (Array.length full.weight)
      && same Int.equal full.ctx_start k.ctx_start (nc + 1)
      && same Int.equal full.ctx_member k.ctx_member full.ctx_start.(nc)
      && same bits full.cfg_time k.cfg_time nc)
  then failwith "Solution: the flat refill diverges from a full fill";
  full

(* Paranoid mode: a pass from [from] must give the full pass's verdict
   and, when acyclic, its makespan and every finish time, bit for
   bit. *)
let check_pass (k : Searchgraph.Flat.t) (full : Searchgraph.Flat.t) ~from
    acyclic =
  let bits x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let nodes = Array.length full.exec + full.n_contexts in
  let rec same_times x =
    x >= nodes || (bits k.time.(x) full.time.(x) && same_times (x + 1))
  in
  if
    Searchgraph.Flat.pass full <> acyclic
    || (acyclic && not (bits k.makespan full.makespan && same_times 0))
  then
    failwith
      (Printf.sprintf
         "Solution: the pass from position %d diverges from a full pass" from)

(* The flat settle: refill the kernel and, when the contexts fit, run
   the pass from the least position a node changed at since the last
   pass, re-sorting the window that edges added since run backward
   across (from 0 after a first fill or a new context count).  Refills
   that run no pass let their marks add up; a cyclic pass leaves the
   last order in place, and the next pass restarts no later than it
   did.  The same times as [Searchgraph.evaluate (spec t)]'s pass, so
   the same bits; [REPRO_CHECK_DELTAS] asserts the refill against a
   full fill, the pass against a full pass and the result against
   [Searchgraph.evaluate]. *)
let settle_flat t =
  let f = flat_of t in
  refill f t;
  let reference = if !check_deltas then Some (check_refill f t) else None in
  let k = f.kernel in
  let result =
    if not f.fits then Evaluated None
    else begin
      let nodes = size t + k.n_contexts in
      let from = if f.full then 0 else min f.low nodes in
      if from = 0 then book_full t nodes else book_partial t (nodes - from);
      let acyclic = Searchgraph.Flat.pass_from k from ~lo:f.lo ~hi:f.hi in
      Option.iter (fun full -> check_pass k full ~from acyclic) reference;
      if acyclic then begin
        f.full <- false;
        f.low <- max_int;
        f.lo <- max_int;
        f.hi <- -1
      end
      else if from = 0 then f.full <- true
      else f.low <- from;
      if acyclic then Settled k.makespan else Evaluated None
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

(* Bring the cache up to date — it is never [Stale] afterwards.  This
   is all a move costs to judge; the evaluation record waits for
   [evaluate]. *)
let settle t =
  (match t.cached with
   | Stale -> t.cached <- settle_flat t
   | Settled _ | Evaluated _ -> ());
  t.cached

let makespan t =
  Repro_util.Fault.tick_eval ();
  match settle t with
  | Settled m -> m
  | Evaluated (Some e) -> e.Searchgraph.makespan
  | Evaluated None | Stale -> infinity

(* The record of a settled state, built on demand by
   [Searchgraph.evaluate], which is bit-identical and, like the cached
   record it stands in for, books no evaluation work. *)
let evaluate t =
  Repro_util.Fault.tick_eval ();
  match settle t with
  | Evaluated result -> result
  | Stale -> None
  | Settled _ ->
    let result = Searchgraph.evaluate (spec t) in
    t.cached <- Evaluated result;
    result

(* --- mutations --- *)

(* Every mutator ends here: the cache is stale, and the next evaluation
   is booked against [kind]. *)
let mutated t kind =
  t.cached <- Stale;
  t.last_kind <- kind

let set_impl t v k =
  if k < 0 || k >= Task.impl_count (App.task t.app v) then
    invalid_arg "Solution.set_impl: implementation index out of range";
  if t.impl.(v) <> k then begin
    write t t.impl v k;
    mutated t Impl
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

let move_to_sw ?(proc = 0) t ~task ~before =
  if proc < 0 || proc >= Array.length t.head then
    invalid_arg "Solution.move_to_sw: no such processor";
  if t.assign.(task) < 0 && processor_index t task = proc then
    invalid_arg "Solution.move_to_sw: task already on that processor";
  let anchor = match before with Some anchor -> anchor | None -> -1 in
  if anchor >= 0 && t.assign.(anchor) <> -(proc + 1) then
    invalid_arg "Solution.move_to_sw: anchor not in that processor's order";
  detach t task;
  write t t.assign task (-(proc + 1));
  link t task proc anchor;
  mutated t Sw_migrate

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
  mutated t Ctx_migrate

let insert_context t ~task ~at =
  let k = List.length t.ctxs in
  if at < 0 || at > k then invalid_arg "Solution.insert_context: bad position";
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
  mutated t Ctx_create

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
  t.ctxs <- swap 0 t.ctxs;
  mutated t Ctx_swap

let reorder_sw t ~task ~before =
  if t.assign.(task) >= 0 || t.assign.(before) >= 0 then
    invalid_arg "Solution.reorder_sw: both tasks must be in software";
  let p = processor_index t task in
  if processor_index t before <> p then
    invalid_arg "Solution.reorder_sw: tasks on different processors";
  if task <> before then begin
    unlink t task;
    link t task p before;
    mutated t Sw_reorder
  end

let replace_platform t platform =
  if Platform.processor_count platform <> Array.length t.head then
    invalid_arg
      "Solution.replace_platform: platforms must have the same number of \
       processors";
  t.platform <- platform;
  t.last_kind <- Platform_swap;
  (* Every weight and transfer time may change: refill. *)
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
