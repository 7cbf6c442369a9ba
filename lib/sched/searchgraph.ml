open Repro_taskgraph
open Repro_arch

type binding = Sw | Hw of int | On_asic of int

type spec = {
  app : App.t;
  platform : Platform.t;
  binding : int -> binding;
  impl_choice : int -> int;
  sw_order : int list;
  contexts : int list list;
  proc_of : int -> int;
  extra_sw_orders : int list list;
}

let single_processor_spec ~app ~platform ~binding ~impl_choice ~sw_order
    ~contexts =
  {
    app;
    platform;
    binding;
    impl_choice;
    sw_order;
    contexts;
    proc_of = (fun _ -> 0);
    extra_sw_orders = [];
  }

type eval = {
  makespan : float;
  initial_reconfig : float;
  dynamic_reconfig : float;
  comm : float;
  n_contexts : int;
  finish : float array;
}

let exec_time spec v =
  let task = App.task spec.app v in
  match spec.binding v with
  | Sw -> task.Task.sw_time /. Platform.processor_speed spec.platform (spec.proc_of v)
  | Hw _ | On_asic _ -> (Task.impl task (spec.impl_choice v)).Task.hw_time

let context_clbs spec members =
  List.fold_left
    (fun acc v ->
      let task = App.task spec.app v in
      acc + (Task.impl task (spec.impl_choice v)).Task.clbs)
    0 members

(* A transfer goes through the shared memory whenever the two tasks run
   on different resources: processor vs circuit vs ASIC, two distinct
   processors, or two distinct ASICs.  The resources collapse into one
   integer code — software on processor p is -(p+1), the (single)
   reconfigurable circuit is 0, the a-th ASIC is a+1 — and a transfer
   crosses exactly when the codes differ.  [Solution] mirrors the same
   coding on its assignment array, so the two crossing predicates can
   never drift. *)
let resource_code binding proc_of v =
  match binding v with
  | Sw -> -(proc_of v + 1)
  | Hw _ -> 0
  | On_asic a -> a + 1

let crossing spec u v =
  resource_code spec.binding spec.proc_of u
  <> resource_code spec.binding spec.proc_of v

(* The boundary-traffic total as a balanced (segment-tree) pairwise
   sum.  A left fold would be cheaper to write, but its value could not
   be patched incrementally without losing bit-identity: float addition
   is not associative, so adding and subtracting a changed term leaves
   different low bits than a recomputed fold.  The tree makes the total
   a pure function of the current per-edge terms under one fixed
   association — updating a leaf and recomputing its ancestors yields
   exactly the bits a from-scratch build over the same terms would. *)
module Comm = struct
  type t = { m : int; tree : float array }

  let create terms =
    let m = Array.length terms in
    let tree = Array.make (2 * max m 1) 0.0 in
    Array.blit terms 0 tree m m;
    for i = m - 1 downto 1 do
      tree.(i) <- tree.(2 * i) +. tree.((2 * i) + 1)
    done;
    { m; tree }

  let get t i = t.tree.(t.m + i)

  let set t i v =
    if t.tree.(t.m + i) <> v then begin
      t.tree.(t.m + i) <- v;
      let j = ref ((t.m + i) / 2) in
      while !j >= 1 do
        t.tree.(!j) <- t.tree.(2 * !j) +. t.tree.((2 * !j) + 1);
        j := !j / 2
      done
    end

  let total t = if t.m = 0 then 0.0 else t.tree.(1)
end

(* Per-application-edge boundary terms, in [App.edges] order: the
   transfer time when the edge crosses the HW/SW boundary, 0 otherwise.
   Shared by [evaluate] below and by [Solution]'s incrementally
   patched total (which flips individual terms as bindings change) —
   one implementation, one association, identical bits. *)
let comm_terms ~platform ~app ~crossing =
  Array.init (App.edge_count app) (fun i ->
      let { App.src; dst; kbytes } = App.edge app i in
      if crossing src dst then Platform.transfer_time platform kbytes
      else 0.0)

(* The sequentialization edge families as explicit pair lists, emitted
   in the exact order [build] inserts them.  [Solution]'s incremental
   path emits its per-move edge deltas under the same ownership
   contract, and its paranoid mode checks them against this list (with
   an id-based [cfg] labelling).

   Ownership contract: every Esw/Ehw pair has exactly one emitter.

   - An Esw pair (a, b) is owned by the adjacency of a and b in one
     processor's execution order ([chain_pairs]; a task sits in at most
     one order, so chains never share pairs).
   - An Ehw pair (c_j, v) — configuration node before member — is owned
     by context j alone ([ehw_intra_pairs]).
   - An Ehw pair into c_j from the previous context — (c_{j-1}, c_j)
     and (v, c_j) for v a member of context j-1 — is owned by the
     adjacent context pair (j-1, j) ([gtlp_pairs]: the globally-total,
     locally-partial order of the DRLC).

   Configuration nodes are distinct from tasks and each other, so the
   three families are mutually disjoint and the concatenated list is
   duplicate-free.  A mutator can therefore emit the exact pair delta
   of a move from the chains, contexts and adjacencies its footprint
   touches alone: pairs owned by an untouched emitter are untouched. *)
let chain_pairs order =
  let rec walk acc = function
    | a :: (b :: _ as rest) -> walk ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  walk [] order

let ehw_intra_pairs ~cfg members = List.map (fun v -> (cfg, v)) members

let gtlp_pairs ~prev_cfg ~prev_members ~cfg =
  (prev_cfg, cfg) :: List.map (fun v -> (v, cfg)) prev_members

(* [ehw_pairs] is the canonical concatenation of the per-class
   emitters: intra pairs of context 0, then for each j >= 1 the GTLP
   pairs of the adjacency (j-1, j) followed by the intra pairs of j.
   Building it from the emitters themselves keeps the global list and
   the per-move deltas structurally incapable of drifting. *)
let ehw_pairs ~cfg contexts =
  let rec walk j prev acc = function
    | [] -> List.concat (List.rev acc)
    | members :: rest ->
      let c = cfg j in
      let here =
        match prev with
        | None -> ehw_intra_pairs ~cfg:c members
        | Some (prev_cfg, prev_members) ->
          gtlp_pairs ~prev_cfg ~prev_members ~cfg:c
          @ ehw_intra_pairs ~cfg:c members
      in
      walk (j + 1) (Some (c, members)) (here :: acc) rest
  in
  walk 0 None [] contexts

let sequencing_pairs ~cfg ~sw_order ~extra_sw_orders ~contexts =
  chain_pairs sw_order
  @ List.concat_map chain_pairs extra_sw_orders
  @ ehw_pairs ~cfg contexts

let build spec =
  let n = App.size spec.app in
  let contexts = Array.of_list spec.contexts in
  let g = Graph.create (n + Array.length contexts) in
  (* Application edges. *)
  List.iter (fun { App.src; dst; kbytes = _ } -> Graph.add_edge g src dst)
    (App.edges spec.app);
  (* Software sequentialization edges (Esw, one chain per processor)
     followed by the context sequentialization (Ehw): configuration
     node n+j waits for all members of context j-1 (and the previous
     configuration) and precedes all members of context j. *)
  List.iter
    (fun (a, b) -> Graph.add_edge g a b)
    (sequencing_pairs
       ~cfg:(fun j -> n + j)
       ~sw_order:spec.sw_order ~extra_sw_orders:spec.extra_sw_orders
       ~contexts:spec.contexts);
  let node_weight v =
    if v < n then exec_time spec v
    else
      Platform.reconfiguration_time spec.platform
        (context_clbs spec contexts.(v - n))
  in
  let edge_weight u v =
    if u < n && v < n && crossing spec u v then
      Platform.transfer_time spec.platform (App.kbytes spec.app u v)
    else 0.0
  in
  (g, node_weight, edge_weight)

(* A start is the max over in-edges of (predecessor finish + edge
   weight), and [Float.max] is exact: any topological order gives the
   finish times of [Graph.longest_path] over [build].  The FIFO's tie
   rule fixes the recorded order, which the bus model sorts by. *)
module Flat = struct
  type t = {
    app : App.t;
    dst : int array;
    exec : float array;
    weight : float array;
    next_sw : int array;
    context : int array;
    ctx_start : int array;
    ctx_member : int array;
    cfg_time : float array;
    mutable n_contexts : int;
    indegree : int array;
    time : float array;
    order : int array;
    mutable queued : int;
    mutable makespan : float;
  }

  let create app ~contexts ~members =
    let n = App.size app and m = App.edge_count app in
    {
      app;
      dst = Array.init m (fun e -> (App.edge app e).App.dst);
      exec = Array.make n 0.0;
      weight = Array.make m 0.0;
      next_sw = Array.make n (-1);
      context = Array.make n (-1);
      ctx_start = Array.make (contexts + 1) 0;
      ctx_member = Array.make members 0;
      cfg_time = Array.make contexts 0.0;
      n_contexts = 0;
      indegree = Array.make (n + contexts) 0;
      time = Array.make (n + contexts) 0.0;
      order = Array.make (n + contexts) 0;
      queued = 0;
      makespan = 0.0;
    }

  let push k x =
    k.order.(k.queued) <- x;
    k.queued <- k.queued + 1
  [@@inline]

  (* [Float.max] with the common case first: one float compare, no
     boxing.  Local to this module, so that it inlines.  It differs
     from [Float.max] only on [fmax (-0.) 0.]; no time here is -0. *)
  let fmax m x =
    if x > m then x
    else if Float.is_nan x || Float.is_nan m then Float.max m x
    else m
  [@@inline]

  (* An edge into [y] from a node that finished at [f]. *)
  let relax k y f =
    k.time.(y) <- fmax k.time.(y) f;
    let d = k.indegree.(y) - 1 in
    k.indegree.(y) <- d;
    if d = 0 then push k y
  [@@inline]

  let pass ?(bus = ([||], [||])) k =
    let n = App.size k.app and nc = k.n_contexts in
    let ins = App.in_edges k.app and outs = App.out_edges k.app in
    let indegree = k.indegree and time = k.time and dst = k.dst in
    for v = 0 to n - 1 do
      indegree.(v) <-
        ins.start.(v + 1) - ins.start.(v) + if k.context.(v) >= 0 then 1 else 0
    done;
    for v = 0 to n - 1 do
      let w = k.next_sw.(v) in
      if w >= 0 then indegree.(w) <- indegree.(w) + 1
    done;
    for j = 0 to nc - 1 do
      indegree.(n + j) <-
        (if j = 0 then 0 else 1 + k.ctx_start.(j) - k.ctx_start.(j - 1))
    done;
    Array.fill time 0 (n + nc) 0.0;
    k.queued <- 0;
    for x = 0 to n + nc - 1 do
      if indegree.(x) = 0 then push k x
    done;
    let head = ref 0 and makespan = ref 0.0 in
    let bus, bus_time = bus and clock = ref 0.0 and txn = ref 0 in
    while !head < k.queued do
      let x = k.order.(!head) in
      incr head;
      if x < n then begin
        let f = time.(x) +. k.exec.(x) in
        time.(x) <- f;
        makespan := fmax !makespan f;
        (* §3.3 bus transactions out of [x], in bus order: each runs
           once both its source and the previous transaction are done. *)
        while !txn < Array.length bus && (App.edge k.app bus.(!txn)).App.src = x
        do
          let e = bus.(!txn) in
          clock := Float.max !clock f +. bus_time.(e);
          time.(dst.(e)) <- Float.max time.(dst.(e)) !clock;
          incr txn
        done;
        for e = outs.start.(x) to outs.start.(x + 1) - 1 do
          relax k dst.(e) (f +. k.weight.(e))
        done;
        let w = k.next_sw.(x) and j = k.context.(x) in
        if w >= 0 then relax k w f;
        if j >= 0 && j + 1 < nc then relax k (n + j + 1) f
      end
      else begin
        let j = x - n in
        let f = time.(x) +. k.cfg_time.(j) in
        time.(x) <- f;
        makespan := fmax !makespan f;
        for i = k.ctx_start.(j) to k.ctx_start.(j + 1) - 1 do
          relax k k.ctx_member.(i) f
        done;
        if j + 1 < nc then relax k (x + 1) f
      end
    done;
    k.makespan <- Float.max !makespan !clock;
    k.queued = n + nc
end

(* The flat arrays of a spec: the structure [build] inserts, with
   [build]'s node and edge weights; and the spec's crossing predicate. *)
let flat spec =
  let app = spec.app and platform = spec.platform and n = App.size spec.app in
  let contexts = spec.contexts and nc = List.length spec.contexts in
  let k =
    Flat.create app ~contexts:nc
      ~members:(List.fold_left (fun acc c -> acc + List.length c) 0 contexts)
  in
  Array.iteri (fun v _ -> k.exec.(v) <- exec_time spec v) k.exec;
  (* One binding lookup per task, not two per edge. *)
  let code = Array.init n (resource_code spec.binding spec.proc_of) in
  let crossing u v = code.(u) <> code.(v) in
  let terms = comm_terms ~platform ~app ~crossing in
  Array.blit terms 0 k.weight 0 (Array.length terms);
  (* A chain pair that repeats an application edge is that edge:
     [Graph.add_edge] keeps the first insertion only. *)
  let rec link = function
    | a :: (b :: _ as rest) ->
      if not (Graph.has_edge app.App.graph a b) then k.next_sw.(a) <- b;
      link rest
    | [ _ ] | [] -> ()
  in
  List.iter link (spec.sw_order :: spec.extra_sw_orders);
  List.iteri
    (fun j members ->
      let first = k.ctx_start.(j) in
      List.iteri
        (fun i v -> k.context.(v) <- j; k.ctx_member.(first + i) <- v)
        members;
      k.ctx_start.(j + 1) <- first + List.length members;
      k.cfg_time.(j) <-
        Platform.reconfiguration_time platform (context_clbs spec members))
    contexts;
  k.n_contexts <- nc;
  (k, crossing)

let eval_of (k : Flat.t) ~comm =
  let nc = k.n_contexts in
  let dynamic_reconfig = ref 0.0 in
  for j = 1 to nc - 1 do
    dynamic_reconfig := !dynamic_reconfig +. k.cfg_time.(j)
  done;
  {
    makespan = k.makespan;
    initial_reconfig = (if nc > 0 then k.cfg_time.(0) else 0.0);
    dynamic_reconfig = !dynamic_reconfig;
    comm;
    n_contexts = nc;
    finish = k.time;
  }

let evaluate spec =
  let k, _ = flat spec in
  if Flat.pass k then
    Some (eval_of k ~comm:(Comm.total (Comm.create k.weight)))
  else None

(* §3.3 transaction model: each boundary-crossing transfer occupies the
   shared bus exclusively, under a total order consistent with the
   task execution order — the crossing edges sorted by the positions
   of (source, destination) in the pass's topological order.  A second
   pass pops the same order and runs the bus.  The crossing edge itself
   then weighs 0: its transaction ends no earlier than its source, so
   the edge can never set the destination's start. *)
let evaluate_serialized spec =
  let k, crossing = flat spec in
  if not (Flat.pass k) then None
  else begin
    let nodes = Array.length k.order in
    let position = Array.make nodes 0 in
    Array.iteri (fun i v -> position.(v) <- i) k.order;
    let src e = (App.edge spec.app e).App.src in
    let key e = (position.(src e) * nodes) + position.(k.dst.(e)) in
    let bus =
      List.filter
        (fun e -> crossing (src e) k.dst.(e))
        (List.init (App.edge_count spec.app) Fun.id)
    in
    let bus = Array.of_list bus and transfer = Array.copy k.weight in
    Array.sort (fun a b -> Int.compare (key a) (key b)) bus;
    Array.fill k.weight 0 (Array.length k.weight) 0.0;
    ignore (Flat.pass ~bus:(bus, transfer) k : bool);
    let comm = Array.fold_left (fun acc e -> acc +. transfer.(e)) 0.0 bus in
    Some (eval_of k ~comm)
  end

let schedule spec =
  let k, _ = flat spec in
  if Flat.pass k then
    Some
      (Array.init (App.size spec.app) (fun v ->
           (k.time.(v) -. k.exec.(v), k.time.(v))))
  else None
