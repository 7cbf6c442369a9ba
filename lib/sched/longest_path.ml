open Repro_taskgraph

(* One bit per topological position, [bits] positions to a word: the
   refresh worklist.  The lowest set bit of a word is popped in
   constant time: the powers of two below 2^62 leave distinct
   remainders mod 67 (2 generates the multiplicative group mod 67), so
   [ctz] maps [x land (-x)] back to its bit index. *)
let bits = 62

let ctz =
  let table = Array.make 67 0 in
  for k = 0 to bits - 1 do
    table.((1 lsl k) mod 67) <- k
  done;
  table

let lowest_bit x = ctz.((x land (-x)) mod 67)

(* The graph lives in two flat stores of the same edge set, one slice
   per node in each: node [v]'s in-edges are [in_start.(v) ..
   in_start.(v + 1) - 1] of [in_src] (their sources) and [in_w] (their
   cached weights), its out-edges the same slice of [out_start] in
   [out_dst].  A cone step reads its node's in-slice (two arrays per
   predecessor, no weight closure, whose float result would be boxed)
   and queues the targets of its out-slice.  [refresh] re-reads the
   weight cache only for the nodes it is told about. *)
type t = {
  node_weight : int -> float;
  edge_weight : int -> int -> float;
  position : int array;   (* topological position of each node *)
  at : int array;         (* the node at each position *)
  finish : float array;
  weight : float array;
  in_start : int array;
  in_src : int array;
  in_w : float array;
  out_start : int array;
  out_dst : int array;
  marks : int array;      (* position bitmap: empty between calls *)
  mutable touched : int;
}

(* Re-read [v]'s weight and the weights of its in-edges. *)
let reread t v =
  t.weight.(v) <- t.node_weight v;
  for k = t.in_start.(v) to t.in_start.(v + 1) - 1 do
    t.in_w.(k) <- t.edge_weight t.in_src.(k) v
  done

(* Re-evaluate [v] from the cache and store its completion time;
   [true] when it changed.  This is the innermost loop of every refresh
   and rebuild: a plain loop over the slice with an unboxed
   accumulator, and no float crosses a call (a returned float would be
   boxed).  The maximum is [Float.max]'s: the accumulator starts at
   +0, so away from NaNs the strict test is exact (and
   order-independent), and a NaN goes through [Float.max] itself.

   Exact comparison, not a tolerance: a refresh must reach the same
   bitwise fixpoint as a full recomputation. *)
let update t v =
  let src = t.in_src and w = t.in_w and finish = t.finish in
  let acc = ref 0.0 in
  for k = t.in_start.(v) to t.in_start.(v + 1) - 1 do
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
    let n = Graph.size graph and m = Graph.edge_count graph in
    let position = Array.make n 0 in
    Array.iteri (fun i v -> position.(v) <- i) order;
    let t =
      { node_weight; edge_weight; position; at = order;
        finish = Array.make n 0.0; weight = Array.make n 0.0;
        in_start = Array.make (n + 1) 0; in_src = Array.make m 0;
        in_w = Array.make m 0.0; out_start = Array.make (n + 1) 0;
        out_dst = Array.make m 0; marks = Array.make ((n / bits) + 1) 0;
        touched = n }
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
      t.in_start.(v + 1) <- fill_in v t.in_start.(v) (Graph.preds graph v);
      t.out_start.(v + 1) <- fill_out t.out_start.(v) (Graph.succs graph v);
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
      if update t v then
        for k = t.out_start.(v) to t.out_start.(v + 1) - 1 do
          queued := push t !queued t.out_dst.(k)
        done
    end
  done;
  t.touched <- !touched

let touched_last_refresh t = t.touched
