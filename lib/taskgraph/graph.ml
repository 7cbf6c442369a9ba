module Bitset = Repro_util.Bitset

type t = {
  size : int;
  succs : int list array;
  preds : int list array;
  mutable edge_count : int;
}

let create size =
  assert (size >= 0);
  { size; succs = Array.make size []; preds = Array.make size []; edge_count = 0 }

let size t = t.size
let edge_count t = t.edge_count

let copy t =
  {
    size = t.size;
    succs = Array.copy t.succs;
    preds = Array.copy t.preds;
    edge_count = t.edge_count;
  }

let check t v =
  if v < 0 || v >= t.size then invalid_arg "Graph: node out of range"

(* Int-typed membership: the polymorphic [List.mem] pays a generic
   compare per cell, and these lists are scanned on every edge edit. *)
let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> x = y || mem_int x rest

let has_edge t src dst =
  check t src;
  check t dst;
  mem_int dst t.succs.(src)

let add_edge t src dst =
  check t src;
  check t dst;
  if src = dst then invalid_arg "Graph.add_edge: self-loop";
  if not (mem_int dst t.succs.(src)) then begin
    t.succs.(src) <- dst :: t.succs.(src);
    t.preds.(dst) <- src :: t.preds.(dst);
    t.edge_count <- t.edge_count + 1
  end

let remove_edge t src dst =
  check t src;
  check t dst;
  if mem_int dst t.succs.(src) then begin
    t.succs.(src) <- List.filter (fun v -> v <> dst) t.succs.(src);
    t.preds.(dst) <- List.filter (fun v -> v <> src) t.preds.(dst);
    t.edge_count <- t.edge_count - 1
  end

let succs t v = check t v; t.succs.(v)
let preds t v = check t v; t.preds.(v)
let out_degree t v = List.length (succs t v)
let in_degree t v = List.length (preds t v)

let iter_edges f t =
  for src = 0 to t.size - 1 do
    List.iter (fun dst -> f src dst) t.succs.(src)
  done

let fold_edges f t init =
  let acc = ref init in
  iter_edges (fun src dst -> acc := f src dst !acc) t;
  !acc

let edges t = List.rev (fold_edges (fun s d acc -> (s, d) :: acc) t [])

let sources t =
  List.filter (fun v -> t.preds.(v) = []) (List.init t.size Fun.id)

let sinks t =
  List.filter (fun v -> t.succs.(v) = []) (List.init t.size Fun.id)

let topological_order t =
  let indeg = Array.init t.size (fun v -> List.length t.preds.(v)) in
  let queue = Queue.create () in
  (* Seed in increasing id order so the order is deterministic. *)
  for v = 0 to t.size - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = Array.make t.size 0 in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!filled) <- v;
    incr filled;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      (List.rev t.succs.(v))
  done;
  if !filled = t.size then Some order else None

let is_dag t = topological_order t <> None

let reachable_from t root =
  check t root;
  let seen = Bitset.create t.size in
  let rec visit v =
    List.iter
      (fun w ->
        if not (Bitset.mem seen w) then begin
          Bitset.add seen w;
          visit w
        end)
      t.succs.(v)
  in
  visit root;
  seen

let transitive_closure t =
  match topological_order t with
  | None -> invalid_arg "Graph.transitive_closure: cyclic graph"
  | Some order ->
    let closure = Array.init t.size (fun _ -> Bitset.create t.size) in
    (* Process in reverse topological order so successors are final. *)
    for i = t.size - 1 downto 0 do
      let v = order.(i) in
      List.iter
        (fun w ->
          Bitset.add closure.(v) w;
          Bitset.union_into closure.(v) closure.(w))
        t.succs.(v)
    done;
    closure

let longest_path t ~node_weight ~edge_weight =
  match topological_order t with
  | None -> invalid_arg "Graph.longest_path: cyclic graph"
  | Some order ->
    let finish = Array.make t.size 0.0 in
    Array.iter
      (fun v ->
        let start =
          List.fold_left
            (fun acc u -> Float.max acc (finish.(u) +. edge_weight u v))
            0.0 t.preds.(v)
        in
        finish.(v) <- start +. node_weight v)
      order;
    finish

let critical_path t ~node_weight ~edge_weight =
  match topological_order t with
  | None -> invalid_arg "Graph.critical_path: cyclic graph"
  | Some order ->
    let finish = Array.make t.size 0.0 in
    let best_pred = Array.make t.size (-1) in
    Array.iter
      (fun v ->
        let start = ref 0.0 in
        List.iter
          (fun u ->
            let candidate = finish.(u) +. edge_weight u v in
            if candidate > !start then begin
              start := candidate;
              best_pred.(v) <- u
            end)
          t.preds.(v);
        finish.(v) <- !start +. node_weight v)
      order;
    if t.size = 0 then (0.0, [])
    else begin
      let best = ref 0 in
      for v = 1 to t.size - 1 do
        if finish.(v) > finish.(!best) then best := v
      done;
      let rec walk v acc =
        if best_pred.(v) = -1 then v :: acc else walk best_pred.(v) (v :: acc)
      in
      (finish.(!best), walk !best [])
    end

let transitive_reduction t =
  let closure = transitive_closure t in
  let reduced = create t.size in
  iter_edges
    (fun src dst ->
      (* Keep src->dst only if no intermediate successor reaches dst. *)
      let redundant =
        List.exists
          (fun mid -> mid <> dst && Bitset.mem closure.(mid) dst)
          t.succs.(src)
      in
      if not redundant then add_edge reduced src dst)
    t;
  reduced
