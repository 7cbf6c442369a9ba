open Repro_taskgraph
module Bitset = Repro_util.Bitset

(* Zero-allocation int min-heap keyed by topological position.  Keys
   are unique (one position per node, and the [queued] bitset pushes
   each node at most once), so no tie-breaking stamp is needed.  The
   generic [Pqueue] would allocate an entry record per push and an
   option per pop — in the innermost loop of every refresh. *)
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

type t = {
  graph : Graph.t;
  node_weight : int -> float;
  edge_weight : int -> int -> float;
  position : int array;   (* topological position of each node *)
  finish : float array;
  queue : heap;           (* refresh worklist scratch; empty between *)
  queued : Bitset.t;      (* calls, so reusable without clearing *)
  fwd : Bitset.t;         (* Pearce–Kelly discovery marks: empty between *)
  bwd : Bitset.t;         (* insertions, each clears what it marked *)
  mutable touched : int;
}

(* Hand-rolled fold: this is the innermost loop of every refresh and
   rebuild, and a [fold_left] closure here is one heap allocation per
   node evaluated. *)
let rec latest_pred t v acc = function
  | [] -> acc
  | u :: rest ->
    latest_pred t v (Float.max acc (t.finish.(u) +. t.edge_weight u v)) rest

let evaluate_node t v =
  latest_pred t v 0.0 (Graph.preds t.graph v) +. t.node_weight v

let recompute_in_order t order =
  Array.iter (fun v -> t.finish.(v) <- evaluate_node t v) order

let create graph ~node_weight ~edge_weight =
  match Graph.topological_order graph with
  | None -> None
  | Some order ->
    let n = Graph.size graph in
    let position = Array.make n 0 in
    Array.iteri (fun i v -> position.(v) <- i) order;
    let t =
      { graph; node_weight; edge_weight; position; finish = Array.make n 0.0;
        queue = heap_create (); queued = Bitset.create n;
        fwd = Bitset.create n; bwd = Bitset.create n; touched = n }
    in
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
  (* Rebuild the processing order from positions. *)
  let n = Array.length t.position in
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

let rec drain t =
  if t.queue.hsize > 0 then begin
    let v = heap_pop t.queue in
    Bitset.remove t.queued v;
    t.touched <- t.touched + 1;
    let fresh = evaluate_node t v in
    (* Exact comparison, not a tolerance: incremental refresh must
       reach the same bitwise fixpoint as a full rebuild, or a
       checkpoint/resume (which rebuilds cold) would diverge from the
       warm run it is replaying. *)
    if fresh <> t.finish.(v) then begin
      t.finish.(v) <- fresh;
      push_all t (Graph.succs t.graph v)
    end;
    drain t
  end

let refresh t dirty =
  push_all t dirty;
  t.touched <- 0;
  drain t

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
      true
    end
  end

(* Removing an edge never breaks a topological order. *)
let delete_edge t u v = Graph.remove_edge t.graph u v
