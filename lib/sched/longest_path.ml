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

(* The graph lives in two flat stores of the same edge set, one slice
   per node in each.  The in-store caches the weights: [in_src] / [in_w]
   hold each in-edge's source and weight, node [v] owning the slice
   [in_start.(v), in_start.(v) + in_cap.(v)) of which the first
   [in_len.(v)] cells are live.  The out-store is laid out the same
   way, [out_dst] holding each out-edge's target.  A cone step reads
   its node's in-slice (two arrays per predecessor, no weight closure,
   whose float result would be boxed) and queues the targets of its
   out-slice; Pearce–Kelly searches forward over out-slices and
   backward over in-slices.  [refresh] re-reads the weight cache only
   for the nodes it is told about. *)
type t = {
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
  out_start : int array;
  out_len : int array;
  out_cap : int array;
  mutable out_dst : int array;
  mutable out_used : int;
  marks : int array;      (* position bitmap: empty between calls *)
  run : int array;        (* reorder scratch: the moved nodes, *)
  pool : int array;       (* and the positions they share *)
  mutable touched : int;
}

(* Free cells left at the end of every slice by [create], so that most
   edge insertions land in place. *)
let slack = 2

(* Both stores grow by one rule.  A full slice moves to the end of its
   store with twice the room.  When the store is short of that room,
   every live slice is first compacted into fresh arrays with twice the
   room the slices need: the holes that relocated slices left behind
   are reclaimed there.  [relayout] lays the slices out afresh from
   cell 0, each at its capacity, [move] copying a slice's live cells;
   it returns the first free cell. *)
let room cap need = 2 * (Array.fold_left ( + ) need cap)

let relayout start len cap move =
  let cursor = ref 0 in
  for v = 0 to Array.length start - 1 do
    move start.(v) !cursor len.(v);
    start.(v) <- !cursor;
    cursor := !cursor + cap.(v)
  done;
  !cursor

let reserve_in t need =
  if t.in_used + need > Array.length t.in_src then begin
    let size = room t.in_cap need in
    let src = Array.make size 0 and w = Array.make size 0.0 in
    t.in_used <-
      relayout t.in_start t.in_len t.in_cap (fun s d len ->
          Array.blit t.in_src s src d len;
          Array.blit t.in_w s w d len);
    t.in_src <- src;
    t.in_w <- w
  end

let reserve_out t need =
  if t.out_used + need > Array.length t.out_dst then begin
    let dst = Array.make (room t.out_cap need) 0 in
    t.out_used <-
      relayout t.out_start t.out_len t.out_cap (fun s d len ->
          Array.blit t.out_dst s dst d len);
    t.out_dst <- dst
  end

(* Append the in-edge [u -> v] to [v]'s slice. *)
let add_in t u v =
  if t.in_len.(v) = t.in_cap.(v) then begin
    let cap = max 4 (2 * t.in_cap.(v)) in
    reserve_in t cap;
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

(* Append the out-edge [u -> v] to [u]'s slice. *)
let add_out t u v =
  if t.out_len.(u) = t.out_cap.(u) then begin
    let cap = max 4 (2 * t.out_cap.(u)) in
    reserve_out t cap;
    let s = t.out_used in
    Array.blit t.out_dst t.out_start.(u) t.out_dst s t.out_len.(u);
    t.out_start.(u) <- s;
    t.out_cap.(u) <- cap;
    t.out_used <- s + cap
  end;
  t.out_dst.(t.out_start.(u) + t.out_len.(u)) <- v;
  t.out_len.(u) <- t.out_len.(u) + 1

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

(* The cell of [v] in [u]'s out-slice, or the slice's end. *)
let find_out t u v =
  let e = t.out_start.(u) + t.out_len.(u) in
  let k = ref t.out_start.(u) in
  while !k < e && t.out_dst.(!k) <> v do
    incr k
  done;
  !k

let has_edge t u v = find_out t u v < t.out_start.(u) + t.out_len.(u)

(* Drop [u -> v] from [u]'s slice as [remove_in] does; [false] when
   the edge is absent.  The order of an out-slice only orders the
   refresh's pushes, which it pops by position, and the searches'
   visits, which they sort by position. *)
let remove_out t u v =
  let k = find_out t u v and last = t.out_start.(u) + t.out_len.(u) - 1 in
  k <= last
  && begin
    t.out_dst.(k) <- t.out_dst.(last);
    t.out_len.(u) <- t.out_len.(u) - 1;
    true
  end

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

(* Both stores are filled in one pass over [Graph.preds] and
   [Graph.succs], their sizes known up front from the edge count: a
   handful of arrays whatever the graph size, not one per node.  The
   graph is not read again. *)
let create graph ~node_weight ~edge_weight =
  match Graph.topological_order graph with
  | None -> None
  | Some order ->
    let n = Graph.size graph in
    let position = Array.make n 0 in
    Array.iteri (fun i v -> position.(v) <- i) order;
    let size = Graph.edge_count graph + (slack * n) in
    let t =
      { node_weight; edge_weight; position; finish = Array.make n 0.0;
        weight = Array.make n 0.0; in_start = Array.make n 0;
        in_len = Array.make n 0; in_cap = Array.make n 0;
        in_src = Array.make size 0; in_w = Array.make size 0.0; in_used = 0;
        out_start = Array.make n 0; out_len = Array.make n 0;
        out_cap = Array.make n 0; out_dst = Array.make size 0; out_used = 0;
        at = order; marks = Array.make ((n / bits) + 1) 0;
        run = Array.make n 0; pool = Array.make n 0; touched = n }
    in
    let rec fill_in v k = function
      | [] -> k
      | u :: rest ->
        t.in_src.(k) <- u;
        t.in_w.(k) <- edge_weight u v;
        fill_in v (k + 1) rest
    in
    let rec fill_out k = function
      | [] -> k
      | v :: rest ->
        t.out_dst.(k) <- v;
        fill_out (k + 1) rest
    in
    for v = 0 to n - 1 do
      let s = t.in_used in
      let e = fill_in v s (Graph.preds graph v) in
      t.in_start.(v) <- s;
      t.in_len.(v) <- e - s;
      t.in_cap.(v) <- e - s + slack;
      t.in_used <- e + slack;
      let s = t.out_used in
      let e = fill_out s (Graph.succs graph v) in
      t.out_start.(v) <- s;
      t.out_len.(v) <- e - s;
      t.out_cap.(v) <- e - s + slack;
      t.out_used <- e + slack;
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
      if update t v then begin
        let s = t.out_start.(v) in
        for k = s to s + t.out_len.(v) - 1 do
          queued := push t !queued t.out_dst.(k)
        done
      end
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

(* Pearce–Kelly's forward search from [w]: mark the nodes it reaches
   at positions below [ub]; [true] as soon as it meets [u], the
   inserted edge's source (a cycle). *)
let rec forward t u ub w =
  mark t t.position.(w);
  let k = ref t.out_start.(w) and e = t.out_start.(w) + t.out_len.(w) in
  let cycle = ref false in
  while (not !cycle) && !k < e do
    let x = t.out_dst.(!k) in
    if x = u then cycle := true
    else begin
      let p = t.position.(x) in
      if p < ub && not (marked t p) then cycle := forward t u ub x
    end;
    incr k
  done;
  !cycle

(* Its backward search from [w]: mark the nodes reaching [w] from
   positions above [lb]. *)
let rec backward t lb w =
  mark t t.position.(w);
  let s = t.in_start.(w) in
  for k = s to s + t.in_len.(w) - 1 do
    let p = t.position.(t.in_src.(k)) in
    if p > lb && not (marked t p) then backward t lb t.in_src.(k)
  done

(* Dynamic topological-order maintenance (Pearce & Kelly): an edge
   u -> v with pos(u) < pos(v) is order-compatible and costs nothing;
   otherwise the nodes reaching u from v's position range and the nodes
   reachable from v up to u's position range swap position pools.  The
   two discovery DFSs run before any mutation, so a rejected (cyclic)
   insertion leaves the state untouched.  Both searches mark the
   positions they visit in the bitmap, all inside [pos v, pos u]; one
   sweep of that range sorts each set, so clearing and sorting cost
   the search area, not the graph size, and the new order does not
   depend on the order the slices list their edges in. *)
let insert_edge t u v =
  let n = Array.length t.position in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Longest_path.insert_edge";
  if u = v then false
  else if has_edge t u v then true
  else if t.position.(u) < t.position.(v) then begin
    add_out t u v;
    add_in t u v;
    true
  end
  else begin
    let lb = t.position.(v) and ub = t.position.(u) in
    let cycle = forward t u ub v in
    let fwd = collect t lb ub 0 in
    if cycle then false
    else begin
      backward t lb u;
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
      add_out t u v;
      add_in t u v;
      true
    end
  end

(* Removing an edge never breaks a topological order. *)
let delete_edge t u v = if remove_out t u v then remove_in t u v

(* A verification reader: both stores listed and compared, O(E log E). *)
let edges t =
  let compare_edge (a, b) (c, d) =
    if a <> c then Int.compare a c else Int.compare b d
  in
  let listed start len cell pair =
    let acc = ref [] in
    for v = 0 to Array.length start - 1 do
      for k = start.(v) to start.(v) + len.(v) - 1 do
        acc := pair v cell.(k) :: !acc
      done
    done;
    List.sort compare_edge !acc
  in
  let out = listed t.out_start t.out_len t.out_dst (fun u v -> (u, v)) in
  let into = listed t.in_start t.in_len t.in_src (fun v u -> (u, v)) in
  if List.length (List.sort_uniq compare_edge out) <> List.length out then
    failwith "Longest_path.edges: an out-slice lists an edge twice";
  if into <> out then
    failwith "Longest_path.edges: the in- and out-slices disagree";
  if List.exists (fun (u, v) -> t.position.(u) >= t.position.(v)) out then
    failwith "Longest_path.edges: an edge runs against the order";
  out
