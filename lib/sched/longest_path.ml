open Repro_taskgraph

(* One bit per topological position, [bits] positions to a word: the
   refresh worklist and the reorder's sort.  The lowest set bit of a
   word is popped in constant time: the powers of two below 2^62 leave
   distinct remainders mod 67 (2 generates the multiplicative group
   mod 67), so [ctz] maps [x land (-x)] back to its bit index. *)
let bits = 62

let ctz =
  let table = Array.make 67 0 in
  for k = 0 to bits - 1 do
    table.((1 lsl k) mod 67) <- k
  done;
  table

let lowest_bit x = ctz.((x land (-x)) mod 67)

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
  at : int array;         (* the node at each position *)
  finish : float array;
  weight : float array;
  in_start : int array;
  in_len : int array;
  in_cap : int array;
  mutable in_src : int array;
  mutable in_w : float array;
  mutable in_used : int;  (* the store's cells past this one are free *)
  marks : int array;      (* position bitmap: empty between calls *)
  run : int array;        (* reorder scratch: the moved nodes, *)
  pool : int array;       (* and the positions they share *)
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
   boxed).  The maximum is [Float.max]'s: the accumulator starts at
   +0, so away from NaNs the strict test is exact (and
   order-independent), and a NaN goes through [Float.max] itself.

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
        at = order; marks = Array.make ((n / bits) + 1) 0;
        run = Array.make n 0; pool = Array.make n 0; touched = n }
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
    Array.iter (fun v -> ignore (update t v)) order;
    Some t

let finish t v = t.finish.(v)
let finish_array t = t.finish

let recompute t =
  for v = 0 to Array.length t.position - 1 do
    reread t v
  done;
  Array.iter (fun v -> ignore (update t v)) t.at;
  t.touched <- Array.length t.at

let mark t p =
  let w = p / bits in
  t.marks.(w) <- t.marks.(w) lor (1 lsl (p mod bits))

let marked t p = t.marks.(p / bits) land (1 lsl (p mod bits)) <> 0

(* Queue [v] unless it is queued already; [queued] counts the queue. *)
let push t queued v =
  let p = t.position.(v) in
  if marked t p then queued
  else begin
    mark t p;
    queued + 1
  end

let rec push_succs t queued = function
  | [] -> queued
  | v :: rest -> push_succs t (push t queued v) rest

(* A dirty node re-reads its weights when first queued, so a node
   listed twice is read once. *)
let rec push_dirty t queued = function
  | [] -> queued
  | v :: rest ->
    let now = push t queued v in
    if now > queued then reread t v;
    push_dirty t now rest

let rec lowest_position t low = function
  | [] -> low
  | v :: rest ->
    let p = t.position.(v) in
    lowest_position t (if p < low then p else low) rest

(* Worklist in topological order: the lowest queued position is popped
   first, and every node it queues sits at a later position, so one
   forward sweep of the bitmap evaluates each node after all of its
   updated predecessors, at most once. *)
let refresh t dirty =
  let queued = ref (push_dirty t 0 dirty) in
  let w = ref (lowest_position t max_int dirty / bits) in
  let touched = ref 0 in
  while !queued > 0 do
    let x = t.marks.(!w) in
    if x = 0 then incr w
    else begin
      t.marks.(!w) <- x land (x - 1);
      decr queued;
      incr touched;
      let v = t.at.((!w * bits) + lowest_bit x) in
      if update t v then queued := push_succs t !queued (Graph.succs t.graph v)
    end
  done;
  t.touched <- !touched

let touched_last_refresh t = t.touched

(* Move the nodes at the marked positions in [lb, ub] into [t.run]
   from index [i], in position order, clearing the marks; returns the
   index past the last one. *)
let collect t lb ub i =
  let i = ref i in
  for w = lb / bits to ub / bits do
    let x = ref t.marks.(w) in
    while !x <> 0 do
      t.run.(!i) <- t.at.((w * bits) + lowest_bit !x);
      incr i;
      x := !x land (!x - 1)
    done;
    t.marks.(w) <- 0
  done;
  !i

(* Dynamic topological-order maintenance (Pearce & Kelly): an edge
   u -> v with pos(u) < pos(v) is order-compatible and costs nothing;
   otherwise the nodes reaching u from v's position range and the nodes
   reachable from v up to u's position range swap position pools.  The
   two discovery DFSs run before any mutation, so a rejected (cyclic)
   insertion leaves the state untouched.  Both searches mark the
   positions they visit in the bitmap, all inside [pos v, pos u]; one
   sweep of that range sorts each set, so clearing and sorting cost
   the search area, not the graph size. *)
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
    let cycle = ref false in
    let rec forward w =
      if not !cycle then begin
        mark t t.position.(w);
        List.iter
          (fun x ->
            if x = u then cycle := true
            else if t.position.(x) < ub && not (marked t t.position.(x)) then
              forward x)
          (Graph.succs t.graph w)
      end
    in
    forward v;
    let fwd = collect t lb ub 0 in
    if !cycle then false
    else begin
      let rec backward w =
        mark t t.position.(w);
        List.iter
          (fun x ->
            if t.position.(x) > lb && not (marked t t.position.(x)) then
              backward x)
          (Graph.preds t.graph w)
      in
      backward u;
      let all = collect t lb ub fwd in
      (* Positions increase along every path, so the forward frontier
         bounded by pos(u) cannot miss a cycle, and the two sets are
         disjoint whenever no cycle was found.  [t.run] holds the
         descendants of [v] in [0, fwd) and the ancestors of [u] in
         [fwd, all), each in position order.  Merge their positions into
         the pool, then reassign it: ancestors first (keeping their
         relative order), then descendants. *)
      let i = ref 0 and j = ref fwd in
      for k = 0 to all - 1 do
        if
          !j < all
          && (!i = fwd || t.position.(t.run.(!j)) < t.position.(t.run.(!i)))
        then begin
          t.pool.(k) <- t.position.(t.run.(!j));
          incr j
        end
        else begin
          t.pool.(k) <- t.position.(t.run.(!i));
          incr i
        end
      done;
      let bwd = all - fwd in
      for k = 0 to all - 1 do
        let w = t.run.(if k < bwd then fwd + k else k - bwd) in
        t.position.(w) <- t.pool.(k);
        t.at.(t.pool.(k)) <- w
      done;
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
