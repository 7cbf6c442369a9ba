type edge = { src : int; dst : int; kbytes : float }

type adjacency = { start : int array; node : int array; edge : int array }

type impl_table = { first : int array; hw_time : float array; clbs : int array }

(* The application's derived structure, computed once by [make]: the
   rebuild evaluators and the GA decoder read it on every evaluation,
   and the moves' cycle tests read its closure.
   The per-task lists are int slices of flat arrays ({!adjacency}):
   task [v]'s slots are [start.(v) .. start.(v+1) - 1].  Int arrays
   hold no pointers, so building them costs the collector nothing
   beyond the arrays themselves, and a scan reads contiguous words. *)
type index = {
  edges : edge array;
  (* in [Graph.edges] order: source ascending, then the source's
     successor list, most recently added first *)
  edge_list : edge list;           (* [edges] as a list *)
  ins : adjacency;                 (* in-edges, in [edges] order *)
  outs : adjacency;                (* out-edges, destination ascending *)
  inc_start : int array;
  inc_edge : int array;            (* slot -> edge index, ascending per task *)
  topo : int array;
  closure : Closure.t;
  impls : impl_table;              (* every task's implementations *)
}

type t = {
  name : string;
  tasks : Task.t array;
  graph : Graph.t;
  index : index;
  deadline : float option;
}

(* [starts counts] is the slice table of per-task [counts]: task [v]
   owns slots [starts.(v) .. starts.(v+1) - 1]. *)
let starts counts =
  let n = Array.length counts in
  let s = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    s.(v + 1) <- s.(v) + counts.(v)
  done;
  s

let make ~name ?deadline ~tasks ~edges:input () =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  Array.iteri
    (fun i (task : Task.t) ->
      if task.Task.id <> i then
        invalid_arg
          (Printf.sprintf "App.make: task at position %d has id %d" i
             task.Task.id))
    tasks;
  (match deadline with
   | Some d when d <= 0.0 -> invalid_arg "App.make: non-positive deadline"
   | Some d when not (Float.is_finite d) ->
     invalid_arg "App.make: deadline not finite"
   | Some _ | None -> ());
  let graph = Graph.create n in
  let out_degree = Array.make n 0 and in_degree = Array.make n 0 in
  List.iter
    (fun { src; dst; kbytes } ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "App.make: edge endpoint out of range";
      if kbytes < 0.0 then invalid_arg "App.make: negative data amount";
      if not (Float.is_finite kbytes) then
        invalid_arg "App.make: data amount not finite";
      let before = Graph.edge_count graph in
      Graph.add_edge graph src dst;
      if Graph.edge_count graph = before then
        invalid_arg "App.make: duplicate edge";
      out_degree.(src) <- out_degree.(src) + 1;
      in_degree.(dst) <- in_degree.(dst) + 1)
    input;
  let topo =
    match Graph.topological_order graph with
    | Some order -> order
    | None -> invalid_arg "App.make: precedence graph has a cycle"
  in
  let closure = Closure.of_graph graph in
  let m = Graph.edge_count graph in
  (* [Graph.add_edge] conses each new successor in front, so
     [Graph.edges] lists a source's edges latest input first: fill each
     source's slice from its end. *)
  let edges = match input with [] -> [||] | e :: _ -> Array.make m e in
  let out_end = Array.sub (starts out_degree) 1 n in
  List.iter
    (fun ({ src; _ } as e) ->
      out_end.(src) <- out_end.(src) - 1;
      edges.(out_end.(src)) <- e)
    input;
  let adjacency degree =
    let start = starts degree in
    (start, { start; node = Array.make m 0; edge = Array.make m 0 })
  in
  let in_start, ins = adjacency in_degree in
  let out_start, outs = adjacency out_degree in
  let inc_start = starts (Array.map2 ( + ) in_degree out_degree) in
  let inc_edge = Array.make (2 * m) 0 in
  let in_next = Array.sub in_start 0 n and inc_next = Array.sub inc_start 0 n in
  let add_incident v i =
    inc_edge.(inc_next.(v)) <- i;
    inc_next.(v) <- inc_next.(v) + 1
  in
  Array.iteri
    (fun i { src; dst; kbytes = _ } ->
      let k = in_next.(dst) in
      ins.node.(k) <- src;
      ins.edge.(k) <- i;
      in_next.(dst) <- k + 1;
      add_incident src i;
      add_incident dst i)
    edges;
  (* Out-slices by destination: visit the destinations in increasing
     id and append each in-edge to its source's slice. *)
  let out_next = Array.sub out_start 0 n in
  for w = 0 to n - 1 do
    for k = in_start.(w) to in_start.(w + 1) - 1 do
      let v = ins.node.(k) in
      outs.node.(out_next.(v)) <- w;
      outs.edge.(out_next.(v)) <- ins.edge.(k);
      out_next.(v) <- out_next.(v) + 1
    done
  done;
  let first = starts (Array.map (fun (t : Task.t) -> Array.length t.impls) tasks) in
  let hw_time = Array.make first.(n) 0.0 and clbs = Array.make first.(n) 0 in
  for v = 0 to n - 1 do
    let impls = tasks.(v).Task.impls in
    for i = 0 to Array.length impls - 1 do
      hw_time.(first.(v) + i) <- impls.(i).Task.hw_time;
      clbs.(first.(v) + i) <- impls.(i).Task.clbs
    done
  done;
  let index =
    {
      edges;
      edge_list = Array.to_list edges;
      ins;
      outs;
      inc_start;
      inc_edge;
      topo;
      closure;
      impls = { first; hw_time; clbs };
    }
  in
  { name; tasks; graph; index; deadline }

let size t = Array.length t.tasks

let task t i =
  if i < 0 || i >= size t then invalid_arg "App.task: index out of range";
  t.tasks.(i)

let edge_count t = Array.length t.index.edges
let edge t i = t.index.edges.(i)

let iter_incident t v f =
  let ix = t.index in
  for k = ix.inc_start.(v) to ix.inc_start.(v + 1) - 1 do
    f ix.inc_edge.(k)
  done

(* Index of the edge [src -> dst], -1 if absent: an int scan of
   [dst]'s in-edge slice, since a task has a handful of predecessors
   and hashing a boxed (src, dst) key costs more. *)
let in_edge_index ix src dst =
  let ins = ix.ins in
  let rec scan k stop =
    if k = stop then -1
    else if ins.node.(k) = src then ins.edge.(k)
    else scan (k + 1) stop
  in
  scan ins.start.(dst) ins.start.(dst + 1)

let edge_weight t w =
  let n = size t and ix = t.index in
  fun src dst ->
    if src >= n || dst < 0 || dst >= n then 0.0
    else
      let i = in_edge_index ix src dst in
      if i < 0 then 0.0 else w i

let kbytes t src dst =
  if dst < 0 || dst >= size t then 0.0
  else
    let i = in_edge_index t.index src dst in
    if i < 0 then 0.0 else t.index.edges.(i).kbytes

let edges t = t.index.edge_list
let in_edges t = t.index.ins
let out_edges t = t.index.outs
let impl_table t = t.index.impls
let topological_order t = Array.copy t.index.topo
let topo t = t.index.topo
let closure t = t.index.closure

let total_sw_time t =
  Array.fold_left (fun acc (task : Task.t) -> acc +. task.Task.sw_time) 0.0 t.tasks

let critical_path_with t time_of =
  if size t = 0 then 0.0
  else begin
    let finish =
      Graph.longest_path t.graph
        ~node_weight:(fun v -> time_of t.tasks.(v))
        ~edge_weight:(fun _ _ -> 0.0)
    in
    Array.fold_left Float.max 0.0 finish
  end

let sw_critical_path t = critical_path_with t (fun task -> task.Task.sw_time)

let hw_critical_path t =
  critical_path_with t (fun task -> (Task.fastest_impl task).Task.hw_time)

let parallelism t =
  let cp = sw_critical_path t in
  if cp = 0.0 then 1.0 else total_sw_time t /. cp

let validate t =
  let n = size t in
  let problems = ref [] in
  let note msg = problems := msg :: !problems in
  Array.iteri
    (fun i (task : Task.t) ->
      if task.Task.id <> i then note (Printf.sprintf "task %d: wrong id" i);
      if task.Task.sw_time <= 0.0 then
        note (Printf.sprintf "task %d: sw_time <= 0" i);
      if Array.length task.Task.impls = 0 then
        note (Printf.sprintf "task %d: no implementation" i))
    t.tasks;
  Array.iter
    (fun { src; dst; kbytes } ->
      if not (Graph.has_edge t.graph src dst) then
        note (Printf.sprintf "edge data (%d,%d) without graph edge" src dst);
      if kbytes < 0.0 then
        note (Printf.sprintf "edge (%d,%d): negative data" src dst))
    t.index.edges;
  if Array.length t.index.edges <> Graph.edge_count t.graph then
    note "edge index size mismatch";
  if not (Graph.is_dag t.graph) then note "graph has a cycle";
  if n > 0 && Graph.size t.graph <> n then note "graph size mismatch";
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)

let pp_summary fmt t =
  Format.fprintf fmt
    "@[<v>application %s: %d tasks, %d edges@,\
     total SW time %.1f ms, SW critical path %.1f ms, parallelism %.2f%a@]"
    t.name (size t)
    (Graph.edge_count t.graph)
    (total_sw_time t) (sw_critical_path t) (parallelism t)
    (fun fmt -> function
      | Some d -> Format.fprintf fmt "@,deadline %.1f ms" d
      | None -> ())
    t.deadline
