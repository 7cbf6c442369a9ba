open Repro_taskgraph
open Repro_arch

type genes = { hw : bool array; impl : int array }

(* A run's decode tables: what a gene vector's realization reads but
   its genes do not change, computed once, and the buffers that the
   decode and the makespan pass rewrite for every gene vector.  A
   scoring function owns one set; it is never module-global, since
   portfolio lanes run GA sessions on several domains at once. *)
type tables = {
  app : App.t;
  platform : Platform.t;
  tasks : Task.t array;
  sw_exec : float array;  (* software time on processor 0 *)
  transfer : float array;  (* bus time of each application edge's data *)
  scratch : List_sched.scratch;
  (* Per gene vector, written by [plan]. *)
  area : int array;  (* CLBs asked for in hardware, -1 for software *)
  context : int array;  (* context position, -1 for software *)
  mutable n_contexts : int;
  time : float array;  (* rank weight: software or selected hw time *)
  comm : float array;  (* per edge: [transfer] if it crosses HW/SW *)
  rank : float array;
  order : int array;  (* prioritized topological order, all tasks *)
  (* Per gene vector, written by [kahn]. *)
  ctx_start : int array;  (* context j's members: slice of [ctx_member] *)
  ctx_member : int array;
  ctx_clbs : int array;
  next_sw : int array;  (* software chain successor, -1 at the end *)
  indegree : int array;  (* tasks, then configuration nodes *)
  start : float array;
  ready : int array;  (* Kahn's stack of nodes whose predecessors ran *)
  mutable top : int;
}

let tables app platform =
  let n = App.size app in
  let speed = Platform.processor_speed platform 0 in
  let tasks = app.App.tasks in
  {
    app;
    platform;
    tasks;
    sw_exec = Array.map (fun task -> task.Task.sw_time /. speed) tasks;
    transfer =
      Array.init (App.edge_count app) (fun i ->
          Platform.transfer_time platform (App.edge app i).App.kbytes);
    scratch = List_sched.scratch n;
    area = Array.make n (-1);
    context = Array.make n (-1);
    n_contexts = 0;
    time = Array.make n 0.0;
    comm = Array.make (App.edge_count app) 0.0;
    rank = Array.make n 0.0;
    order = Array.make n 0;
    ctx_start = Array.make (n + 1) 0;  (* [ctx_start.(0)] stays 0 *)
    ctx_member = Array.make n 0;
    ctx_clbs = Array.make n 0;
    next_sw = Array.make n (-1);
    indegree = Array.make (2 * n) 0;
    start = Array.make (2 * n) 0.0;
    ready = Array.make (2 * n) 0;
    top = 0;
  }

let selected t genes v = t.tasks.(v).Task.impls.(genes.impl.(v))

(* The deterministic realization of a gene vector, the single planner
   behind [spec] and [makespan]: temporal partitioning by clustering
   (a hardware gene whose implementation cannot fit the device stays in
   software), then the software order by list scheduling on upward
   ranks.  Fills [t]'s per-gene-vector buffers. *)
let plan t genes =
  let n = App.size t.app in
  for v = 0 to n - 1 do
    t.area.(v) <- (if genes.hw.(v) then (selected t genes v).Task.clbs else -1)
  done;
  t.n_contexts <-
    Clustering.contexts t.app ~limit:(Platform.n_clb t.platform) ~area:t.area
      ~context:t.context;
  for v = 0 to n - 1 do
    t.time.(v) <-
      (if t.context.(v) < 0 then t.tasks.(v).Task.sw_time
       else (selected t genes v).Task.hw_time)
  done;
  (* A transfer costs only across the HW/SW boundary. *)
  let outs = App.out_edges t.app in
  for v = 0 to n - 1 do
    for k = outs.start.(v) to outs.start.(v + 1) - 1 do
      let e = outs.edge.(k) in
      t.comm.(e) <-
        (if t.context.(v) < 0 <> (t.context.(outs.node.(k)) < 0) then
           t.transfer.(e)
         else 0.0)
    done
  done;
  List_sched.upward_rank t.app ~time:t.time ~comm:t.comm ~rank:t.rank;
  List_sched.prioritized_topological_order t.scratch t.app ~priority:t.rank
    ~order:t.order

let spec app platform genes =
  let t = tables app platform in
  plan t genes;
  let context = t.context in
  let sw_order =
    Array.fold_right
      (fun v acc -> if context.(v) < 0 then v :: acc else acc)
      t.order []
  in
  let bindings =
    Array.map
      (fun j -> if j < 0 then Searchgraph.Sw else Searchgraph.Hw j)
      context
  in
  Searchgraph.single_processor_spec ~app ~platform
    ~binding:(fun v -> bindings.(v))
    ~impl_choice:(fun v -> genes.impl.(v))
    ~sw_order
    ~contexts:(Clustering.members app ~context t.n_contexts)

let push_ready t x =
  t.ready.(t.top) <- x;
  t.top <- t.top + 1
[@@inline]

(* An edge into [y] from a node that finished at [f]. *)
let relax t y f =
  t.start.(y) <- Float.max t.start.(y) f;
  t.indegree.(y) <- t.indegree.(y) - 1;
  if t.indegree.(y) = 0 then push_ready t y
[@@inline]

(* Makespan of the planned gene vector: one Kahn pass over the search
   graph that [spec] would build, kept implicit.  Node [v < n] is a
   task, node [n + j] context [j]'s configuration.  The edges are the
   application's (weighted by [comm]), each software task's chain
   successor, and per context j its configuration before each member,
   each member before the next configuration, and the configuration
   before the next.  A node's start is the max over its in-edges of
   (predecessor finish + edge weight), and [Float.max] is exact, so
   visiting the nodes in any topological order gives the bits of
   [Searchgraph.evaluate].  A pass that cannot finish every node met a
   cycle: [infinity]. *)
let kahn t =
  let n = App.size t.app and nc = t.n_contexts in
  let context = t.context and indegree = t.indegree and start = t.start in
  let ctx_start = t.ctx_start and ctx_member = t.ctx_member in
  (* Contexts as slices of [ctx_member]: clustering numbers them along
     the topological order, so each context's members are consecutive
     there. *)
  let topo = App.topo t.app and members = ref 0 in
  Array.fill t.ctx_clbs 0 nc 0;
  for i = 0 to n - 1 do
    let v = topo.(i) in
    let j = context.(v) in
    if j >= 0 then begin
      ctx_member.(!members) <- v;
      incr members;
      ctx_start.(j + 1) <- !members;
      t.ctx_clbs.(j) <- t.ctx_clbs.(j) + t.area.(v)
    end
  done;
  (* In-degrees: application edges, the chain predecessor or the
     context's configuration, and for configuration j > 0 the previous
     configuration and the previous context's members. *)
  let ins = App.in_edges t.app in
  for v = 0 to n - 1 do
    indegree.(v) <-
      ins.start.(v + 1) - ins.start.(v) + if context.(v) >= 0 then 1 else 0
  done;
  let last = ref (-1) in
  for i = 0 to n - 1 do
    let v = t.order.(i) in
    if context.(v) < 0 then begin
      if !last >= 0 then begin
        t.next_sw.(!last) <- v;
        indegree.(v) <- indegree.(v) + 1
      end;
      last := v
    end
  done;
  if !last >= 0 then t.next_sw.(!last) <- -1;
  for j = 0 to nc - 1 do
    indegree.(n + j) <-
      (if j = 0 then 0 else 1 + ctx_start.(j) - ctx_start.(j - 1))
  done;
  let total = n + nc in
  Array.fill start 0 total 0.0;
  t.top <- 0;
  for x = 0 to total - 1 do
    if indegree.(x) = 0 then push_ready t x
  done;
  let outs = App.out_edges t.app in
  let finished = ref 0 and makespan = ref 0.0 in
  while t.top > 0 do
    t.top <- t.top - 1;
    let x = t.ready.(t.top) in
    incr finished;
    if x < n then begin
      let j = context.(x) in
      let f = start.(x) +. if j < 0 then t.sw_exec.(x) else t.time.(x) in
      makespan := Float.max !makespan f;
      for k = outs.start.(x) to outs.start.(x + 1) - 1 do
        relax t outs.node.(k) (f +. t.comm.(outs.edge.(k)))
      done;
      if j < 0 then begin
        if t.next_sw.(x) >= 0 then relax t t.next_sw.(x) f
      end
      else if j + 1 < nc then relax t (n + j + 1) f
    end
    else begin
      let j = x - n in
      let f =
        start.(x)
        +. Platform.reconfiguration_time t.platform t.ctx_clbs.(j)
      in
      makespan := Float.max !makespan f;
      for k = ctx_start.(j) to ctx_start.(j + 1) - 1 do
        relax t ctx_member.(k) f
      done;
      if j + 1 < nc then relax t (x + 1) f
    end
  done;
  if !finished < total then infinity else !makespan

let makespan t genes =
  plan t genes;
  kahn t
