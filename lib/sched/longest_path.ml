open Repro_taskgraph
module Bitset = Repro_util.Bitset

(* Zero-allocation int min-heap keyed by topological position.  Keys
   are unique (one position per node, and the [queued] bitset pushes
   each node at most once), so no tie-breaking stamp is needed.  A
   heap of boxed entries would allocate on every push and pop — in
   the innermost loop of every refresh. *)
type heap = {
  mutable keys : int array;
  mutable vals : int array;
  mutable hsize : int;
}

let heap_create () = { keys = [||]; vals = [||]; hsize = 0 }

let heap_push h key v =
  let cap = Array.length h.keys in
  if h.hsize = cap then begin
    let ncap = max 8 (2 * cap) in
    let nk = Array.make ncap 0 and nv = Array.make ncap 0 in
    Array.blit h.keys 0 nk 0 h.hsize;
    Array.blit h.vals 0 nv 0 h.hsize;
    h.keys <- nk;
    h.vals <- nv
  end;
  let i = ref h.hsize in
  h.hsize <- h.hsize + 1;
  h.keys.(!i) <- key;
  h.vals.(!i) <- v;
  while !i > 0 && h.keys.(!i) < h.keys.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let k = h.keys.(!i) and x = h.vals.(!i) in
    h.keys.(!i) <- h.keys.(p);
    h.vals.(!i) <- h.vals.(p);
    h.keys.(p) <- k;
    h.vals.(p) <- x;
    i := p
  done

(* Pop the minimum-key value; the caller checks [hsize > 0]. *)
let heap_pop h =
  let top = h.vals.(0) in
  h.hsize <- h.hsize - 1;
  if h.hsize > 0 then begin
    h.keys.(0) <- h.keys.(h.hsize);
    h.vals.(0) <- h.vals.(h.hsize);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.hsize && h.keys.(l) < h.keys.(!s) then s := l;
      if r < h.hsize && h.keys.(r) < h.keys.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let k = h.keys.(!i) and x = h.vals.(!i) in
        h.keys.(!i) <- h.keys.(!s);
        h.vals.(!i) <- h.vals.(!s);
        h.keys.(!s) <- k;
        h.vals.(!s) <- x;
        i := !s
      end
    done
  end;
  top

(* The weights are cached: [weight] holds the node weights, and the
   in-edges live in one flat store — [in_src] / [in_w] hold each
   edge's source and weight, node [v] owning the slice
   [in_start.(v), in_start.(v) + in_cap.(v)) of which the first
   [in_len.(v)] cells are live.  The cone loop reads two arrays per
   predecessor and calls no weight closure, whose float result would be
   boxed.  [refresh] re-reads the cache only for the nodes it is told
   about. *)
type t = {
  graph : Graph.t;
  node_weight : int -> float;
  edge_weight : int -> int -> float;
  position : int array;   (* topological position of each node *)
  finish : float array;
  weight : float array;
  in_start : int array;
  in_len : int array;
  in_cap : int array;
  mutable in_src : int array;
  mutable in_w : float array;
  mutable in_used : int;  (* the store's cells past this one are free *)
  queue : heap;           (* refresh worklist scratch; empty between *)
  queued : Bitset.t;      (* calls, so reusable without clearing *)
  fwd : Bitset.t;         (* Pearce–Kelly discovery marks: empty between *)
  bwd : Bitset.t;         (* insertions, each clears what it marked *)
  mutable touched : int;
}

(* Free cells left at the end of every slice by [create], so that most
   edge insertions land in place. *)
let slack = 2

(* Room for [need] more cells at the end of the store.  When short,
   every live slice is compacted into fresh arrays with twice the room:
   the holes that relocated slices left behind are reclaimed there. *)
let reserve t need =
  if t.in_used + need > Array.length t.in_src then begin
    let n = Array.length t.in_start in
    let live = ref 0 in
    for v = 0 to n - 1 do
      live := !live + t.in_cap.(v)
    done;
    let size = 2 * (!live + need) in
    let src = Array.make size 0 and w = Array.make size 0.0 in
    let cursor = ref 0 in
    for v = 0 to n - 1 do
      Array.blit t.in_src t.in_start.(v) src !cursor t.in_len.(v);
      Array.blit t.in_w t.in_start.(v) w !cursor t.in_len.(v);
      t.in_start.(v) <- !cursor;
      cursor := !cursor + t.in_cap.(v)
    done;
    t.in_src <- src;
    t.in_w <- w;
    t.in_used <- !cursor
  end

(* Append the in-edge [u -> v] to [v]'s slice; a full slice moves to
   the end of the store with twice the room. *)
let add_in t u v =
  if t.in_len.(v) = t.in_cap.(v) then begin
    let cap = max 4 (2 * t.in_cap.(v)) in
    reserve t cap;
    let s = t.in_used in
    Array.blit t.in_src t.in_start.(v) t.in_src s t.in_len.(v);
    Array.blit t.in_w t.in_start.(v) t.in_w s t.in_len.(v);
    t.in_start.(v) <- s;
    t.in_cap.(v) <- cap;
    t.in_used <- s + cap
  end;
  let k = t.in_start.(v) + t.in_len.(v) in
  t.in_src.(k) <- u;
  t.in_w.(k) <- t.edge_weight u v;
  t.in_len.(v) <- t.in_len.(v) + 1

(* Drop [u -> v] from [v]'s slice, moving its last cell into the hole.
   The order of a slice does not matter: the maximum over it is the
   same bits in any order (see [update]). *)
let remove_in t u v =
  let s = t.in_start.(v) in
  let last = s + t.in_len.(v) - 1 in
  let k = ref s in
  while t.in_src.(!k) <> u do
    incr k
  done;
  t.in_src.(!k) <- t.in_src.(last);
  t.in_w.(!k) <- t.in_w.(last);
  t.in_len.(v) <- t.in_len.(v) - 1

(* Re-read [v]'s weight and the weights of its in-edges. *)
let reread t v =
  t.weight.(v) <- t.node_weight v;
  let s = t.in_start.(v) in
  for k = s to s + t.in_len.(v) - 1 do
    t.in_w.(k) <- t.edge_weight t.in_src.(k) v
  done

(* Re-evaluate [v] from the cache and store its completion time;
   [true] when it changed.  This is the innermost loop of every refresh
   and rebuild: a plain loop over the slice with an unboxed
   accumulator, and no float crosses a call (a returned float would be
   boxed).  The maximum is [Float.max]'s, as in [makespan] below:
   the accumulator starts at +0, so away from NaNs the strict test is
   exact (and order-independent), and a NaN goes through [Float.max]
   itself.

   Exact comparison, not a tolerance: incremental refresh must reach
   the same bitwise fixpoint as a full rebuild, or a checkpoint/resume
   (which rebuilds cold) would diverge from the warm run it is
   replaying. *)
let update t v =
  let src = t.in_src and w = t.in_w and finish = t.finish in
  let s = t.in_start.(v) in
  let acc = ref 0.0 in
  for k = s to s + t.in_len.(v) - 1 do
    let x = finish.(src.(k)) +. w.(k) in
    if x > !acc then acc := x
    else if Float.is_nan x || Float.is_nan !acc then acc := Float.max !acc x
  done;
  let fresh = !acc +. t.weight.(v) in
  if fresh <> finish.(v) then begin
    finish.(v) <- fresh;
    true
  end
  else false

let recompute_in_order t order = Array.iter (fun v -> ignore (update t v)) order

(* The store is filled in one pass over [Graph.preds], its size known
   up front from the edge count: a handful of arrays whatever the graph
   size, not one per node. *)
let create graph ~node_weight ~edge_weight =
  match Graph.topological_order graph with
  | None -> None
  | Some order ->
    let n = Graph.size graph in
    let position = Array.make n 0 in
    Array.iteri (fun i v -> position.(v) <- i) order;
    let size = Graph.edge_count graph + (slack * n) in
    let t =
      { graph; node_weight; edge_weight; position; finish = Array.make n 0.0;
        weight = Array.make n 0.0; in_start = Array.make n 0;
        in_len = Array.make n 0; in_cap = Array.make n 0;
        in_src = Array.make size 0; in_w = Array.make size 0.0; in_used = 0;
        queue = heap_create (); queued = Bitset.create n;
        fwd = Bitset.create n; bwd = Bitset.create n; touched = n }
    in
    let rec fill v k = function
      | [] -> k
      | u :: rest ->
        t.in_src.(k) <- u;
        t.in_w.(k) <- edge_weight u v;
        fill v (k + 1) rest
    in
    for v = 0 to n - 1 do
      let s = t.in_used in
      let e = fill v s (Graph.preds graph v) in
      t.in_start.(v) <- s;
      t.in_len.(v) <- e - s;
      t.in_cap.(v) <- e - s + slack;
      t.in_used <- e + slack;
      t.weight.(v) <- node_weight v
    done;
    recompute_in_order t order;
    Some t

let finish t v = t.finish.(v)
let finish_array t = t.finish

(* [Array.fold_left Float.max 0.0 t.finish] without boxing a float per
   node: this runs on every settled move.  Away from NaNs the
   accumulator starts at +0 and only grows, so it is never -0 and the
   strict test is exactly [Float.max]; a NaN on either side goes
   through [Float.max] itself. *)
let makespan t =
  let m = ref 0.0 in
  for i = 0 to Array.length t.finish - 1 do
    let x = t.finish.(i) in
    if x > !m then m := x
    else if Float.is_nan x || Float.is_nan !m then m := Float.max !m x
  done;
  !m

let recompute t =
  let n = Array.length t.position in
  for v = 0 to n - 1 do
    reread t v
  done;
  (* Rebuild the processing order from positions. *)
  let order = Array.make n 0 in
  Array.iteri (fun v pos -> order.(pos) <- v) t.position;
  recompute_in_order t order;
  t.touched <- n

(* Worklist in topological order: each node is evaluated after all of
   its updated predecessors, so it is processed at most once. *)
let push t v =
  if not (Bitset.mem t.queued v) then begin
    Bitset.add t.queued v;
    heap_push t.queue t.position.(v) v
  end

let rec push_all t = function
  | [] -> ()
  | v :: rest ->
    push t v;
    push_all t rest

(* A dirty node re-reads its weights when first queued, so a node
   listed twice is read once. *)
let rec push_dirty t = function
  | [] -> ()
  | v :: rest ->
    if not (Bitset.mem t.queued v) then begin
      reread t v;
      push t v
    end;
    push_dirty t rest

let refresh t dirty =
  push_dirty t dirty;
  t.touched <- 0;
  while t.queue.hsize > 0 do
    let v = heap_pop t.queue in
    Bitset.remove t.queued v;
    t.touched <- t.touched + 1;
    if update t v then push_all t (Graph.succs t.graph v)
  done

let touched_last_refresh t = t.touched

(* Dynamic topological-order maintenance (Pearce & Kelly): an edge
   u -> v with pos(u) < pos(v) is order-compatible and costs nothing;
   otherwise the nodes reaching u from v's position range and the nodes
   reachable from v up to u's position range swap position pools.  The
   two discovery DFSs run before any mutation, so a rejected (cyclic)
   insertion leaves the state untouched.  Their marks live in the two
   bitsets owned by [t], and each search keeps the list of the nodes it
   marked: clearing and sorting those costs the search area, not the
   graph size. *)
let insert_edge t u v =
  let n = Array.length t.position in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Longest_path.insert_edge";
  if u = v then false
  else if Graph.has_edge t.graph u v then true
  else if t.position.(u) < t.position.(v) then begin
    Graph.add_edge t.graph u v;
    add_in t u v;
    true
  end
  else begin
    let lb = t.position.(v) and ub = t.position.(u) in
    let fwd = ref [] and cycle = ref false in
    let rec forward w =
      if not !cycle then begin
        Bitset.add t.fwd w;
        fwd := w :: !fwd;
        List.iter
          (fun x ->
            if x = u then cycle := true
            else if t.position.(x) < ub && not (Bitset.mem t.fwd x) then
              forward x)
          (Graph.succs t.graph w)
      end
    in
    forward v;
    List.iter (Bitset.remove t.fwd) !fwd;
    if !cycle then false
    else begin
      let bwd = ref [] in
      let rec backward w =
        Bitset.add t.bwd w;
        bwd := w :: !bwd;
        List.iter
          (fun x ->
            if t.position.(x) > lb && not (Bitset.mem t.bwd x) then backward x)
          (Graph.preds t.graph w)
      in
      backward u;
      List.iter (Bitset.remove t.bwd) !bwd;
      (* Positions increase along every path, so the forward frontier
         bounded by pos(u) cannot miss a cycle, and the two sets are
         disjoint whenever no cycle was found.  Reassign the merged
         position pool: ancestors of [u] first (keeping their relative
         order), then descendants of [v]. *)
      let by_pos l =
        List.sort (fun a b -> Int.compare t.position.(a) t.position.(b)) l
      in
      let affected = by_pos !bwd @ by_pos !fwd in
      let pool =
        List.sort Int.compare (List.map (fun w -> t.position.(w)) affected)
      in
      List.iter2 (fun w p -> t.position.(w) <- p) affected pool;
      Graph.add_edge t.graph u v;
      add_in t u v;
      true
    end
  end

(* Removing an edge never breaks a topological order. *)
let delete_edge t u v =
  if Graph.has_edge t.graph u v then begin
    Graph.remove_edge t.graph u v;
    remove_in t u v
  end
