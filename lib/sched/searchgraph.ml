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
   sum: one fixed association over the per-edge terms, so the total is
   a pure function of them, whatever computes them. *)
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

  let total t = if t.m = 0 then 0.0 else t.tree.(1)
end

(* Per-application-edge boundary terms, in [App.edges] order: the
   transfer time when the edge crosses the HW/SW boundary, 0 otherwise. *)
let comm_terms ~platform ~app ~crossing =
  Array.init (App.edge_count app) (fun i ->
      let { App.src; dst; kbytes } = App.edge app i in
      if crossing src dst then Platform.transfer_time platform kbytes
      else 0.0)

(* The sequentialization edges in the order [build] inserts them: each
   processor's chain, then per context [j] its configuration node
   [cfg j] before each member, preceded from [j = 1] on by the pairs
   into [cfg j] from the previous configuration node and from each
   member of context [j - 1] (the globally total, locally partial order
   of the DRLC). *)
let sequencing_pairs ~cfg ~sw_orders ~contexts =
  let rec chain acc = function
    | a :: (b :: _ as rest) -> chain ((a, b) :: acc) rest
    | [ _ ] | [] -> acc
  in
  let rec ehw j prev acc = function
    | [] -> acc
    | members :: rest ->
      let c = cfg j in
      let acc =
        match prev with
        | None -> acc
        | Some prev_members ->
          List.fold_left (fun acc v -> (v, c) :: acc) ((cfg (j - 1), c) :: acc)
            prev_members
      in
      let acc = List.fold_left (fun acc v -> (c, v) :: acc) acc members in
      ehw (j + 1) (Some members) acc rest
  in
  List.rev (ehw 0 None (List.fold_left chain [] sw_orders) contexts)

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
       ~sw_orders:(spec.sw_order :: spec.extra_sw_orders)
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
    prev_sw : int array;
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
    position : int array;
    prefix : float array;
  }

  let create app ~contexts ~members =
    let n = App.size app and m = App.edge_count app in
    {
      app;
      dst = Array.init m (fun e -> (App.edge app e).App.dst);
      exec = Array.make n 0.0;
      weight = Array.make m 0.0;
      next_sw = Array.make n (-1);
      prev_sw = Array.make n (-1);
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
      position = Array.make (n + contexts) 0;
      prefix = Array.make (n + contexts) 0.0;
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

  (* Kahn's loop from FIFO slot [head], every queued node's start in
     [time] and its unresolved in-edges in [indegree]; [makespan] is the
     largest finish before [head].  [false] when a node is never
     queued: the graph is cyclic. *)
  let drain k ~bus head makespan =
    let n = App.size k.app and nc = k.n_contexts in
    let outs = App.out_edges k.app in
    let time = k.time and dst = k.dst in
    let head = ref head and makespan = ref makespan in
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
  [@@inline]

  let pass ?(bus = ([||], [||])) k =
    let n = App.size k.app and nc = k.n_contexts in
    let ins = App.in_edges k.app in
    let indegree = k.indegree in
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
    Array.fill k.time 0 (n + nc) 0.0;
    k.queued <- 0;
    for x = 0 to n + nc - 1 do
      if indegree.(x) = 0 then push k x
    done;
    drain k ~bus 0 0.0

  (* The pop order's positions and prefix maxima from slot 0 on. *)
  let record k =
    let m = ref 0.0 in
    for i = 0 to k.queued - 1 do
      let x = k.order.(i) in
      k.position.(x) <- i;
      m := fmax !m k.time.(x);
      k.prefix.(i) <- !m
    done

  (* Node [x]'s finish from the finishes of its in-edges' sources:
     every one of them is final. *)
  let finish k n x =
    let time = k.time and start = ref 0.0 in
    if x < n then begin
      let ins = App.in_edges k.app in
      for s = ins.start.(x) to ins.start.(x + 1) - 1 do
        start := fmax !start (time.(ins.node.(s)) +. k.weight.(ins.edge.(s)))
      done;
      let u = k.prev_sw.(x) and j = k.context.(x) in
      if u >= 0 then start := fmax !start time.(u);
      if j >= 0 then start := fmax !start time.(n + j);
      time.(x) <- !start +. k.exec.(x)
    end
    else begin
      let j = x - n in
      if j > 0 then begin
        start := fmax !start time.(x - 1);
        for s = k.ctx_start.(j - 1) to k.ctx_start.(j) - 1 do
          start := fmax !start time.(k.ctx_member.(s))
        done
      end;
      time.(x) <- !start +. k.cfg_time.(j)
    end

  (* The nodes of slots [a, b) in the last order, each from its in-edges;
     the makespan's prefix maxima follow. *)
  let in_order k n a b makespan =
    let makespan = ref makespan in
    for i = a to b - 1 do
      let x = k.order.(i) in
      finish k n x;
      makespan := fmax !makespan k.time.(x);
      k.prefix.(i) <- !makespan
    done;
    !makespan

  (* An edge [u -> x] into the window of slots from [lo] on: from
     inside, it counts in [x]'s in-degree; from before, it gives a
     start. *)
  let enter_window k lo u x w =
    if k.position.(u) >= lo then k.indegree.(x) <- k.indegree.(x) + 1
    else k.time.(x) <- fmax k.time.(x) (k.time.(u) +. w)
  [@@inline]

  (* An edge to [y] from a window node that finished at [f]: relaxed
     when [y] is inside the window of slots up to [hi]. *)
  let relax_window k hi y f =
    if k.position.(y) <= hi then relax k y f
  [@@inline]

  (* Kahn's algorithm over the nodes of slots [lo, hi]: their edges
     from before [lo] give starts, the ones inside count in-degrees,
     and a popped node relaxes only its successors inside (no edge
     leaves a later slot for the window).  The slots are refilled in
     the new order, with positions and prefix maxima; [None] when a
     node is never popped (a cycle), the slots then put back. *)
  let window k n lo hi makespan =
    let position = k.position and time = k.time and indegree = k.indegree in
    let from u x w = enter_window k lo u x w [@@inline] in
    let ins = App.in_edges k.app and outs = App.out_edges k.app in
    for i = lo to hi do
      let x = k.order.(i) in
      indegree.(x) <- 0;
      time.(x) <- 0.0;
      if x < n then begin
        for s = ins.start.(x) to ins.start.(x + 1) - 1 do
          from ins.node.(s) x k.weight.(ins.edge.(s))
        done;
        let u = k.prev_sw.(x) and j = k.context.(x) in
        if u >= 0 then from u x 0.0;
        if j >= 0 then from (n + j) x 0.0
      end
      else begin
        let j = x - n in
        if j > 0 then begin
          from (x - 1) x 0.0;
          for s = k.ctx_start.(j - 1) to k.ctx_start.(j) - 1 do
            from k.ctx_member.(s) x 0.0
          done
        end
      end
    done;
    k.queued <- lo;
    for i = lo to hi do
      let x = k.order.(i) in
      if indegree.(x) = 0 then push k x
    done;
    let relax y f = relax_window k hi y f [@@inline] in
    let nc = k.n_contexts and head = ref lo and makespan = ref makespan in
    while !head < k.queued do
      let x = k.order.(!head) in
      let f =
        if x < n then time.(x) +. k.exec.(x) else time.(x) +. k.cfg_time.(x - n)
      in
      time.(x) <- f;
      makespan := fmax !makespan f;
      k.prefix.(!head) <- !makespan;
      incr head;
      if x < n then begin
        for e = outs.start.(x) to outs.start.(x + 1) - 1 do
          relax k.dst.(e) (f +. k.weight.(e))
        done;
        let w = k.next_sw.(x) and j = k.context.(x) in
        if w >= 0 then relax w f;
        if j >= 0 && j + 1 < nc then relax (n + j + 1) f
      end
      else begin
        let j = x - n in
        for i = k.ctx_start.(j) to k.ctx_start.(j + 1) - 1 do
          relax k.ctx_member.(i) f
        done;
        if j + 1 < nc then relax (x + 1) f
      end
    done;
    if k.queued = hi + 1 then begin
      for i = lo to hi do
        position.(k.order.(i)) <- i
      done;
      Some !makespan
    end
    else begin
      (* Put the slots back as the last order had them. *)
      for x = 0 to n + nc - 1 do
        if position.(x) >= lo && position.(x) <= hi then
          k.order.(position.(x)) <- x
      done;
      None
    end

  let pass_from k p ~lo ~hi =
    if p = 0 then begin
      let acyclic = pass k in
      if acyclic then record k;
      acyclic
    end
    else begin
      let n = App.size k.app in
      let total = n + k.n_contexts and lo = max lo p in
      let before, after = if lo <= hi then (lo, hi + 1) else (total, total) in
      let m = in_order k n p before k.prefix.(p - 1) in
      match if lo <= hi then window k n lo hi m else Some m with
      | None -> false
      | Some m ->
        k.makespan <- Float.max (in_order k n after total m) 0.0;
        true
    end
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
