open Repro_taskgraph
open Repro_arch

type genes = { hw : bool array; impl : int array }

let genes_to_string g =
  String.init (Array.length g.hw) (fun v -> if g.hw.(v) then '1' else '0')
  ^ String.concat "" (List.map (Printf.sprintf " %d") (Array.to_list g.impl))

let genes_of_words (tasks : Task.t array) words =
  let n = Array.length tasks in
  let in_range v = function
    | Some i -> i >= 0 && i < Task.impl_count tasks.(v)
    | None -> false
  in
  match words with
  | hw :: impl
    when String.length hw = n && List.length impl = n
         && String.for_all (fun c -> c = '0' || c = '1') hw -> (
    match List.map int_of_string_opt impl with
    | impl when List.for_all Fun.id (List.mapi in_range impl) ->
      Some
        { hw = Array.init n (fun v -> hw.[v] = '1');
          impl = Array.of_list (List.map Option.get impl) }
    | _ -> None)
  | _ -> None

(* A run's decode tables: what a gene vector's realization reads but
   its genes do not change, computed once, and the buffers that the
   decode and the makespan pass rewrite for every gene vector.  A
   scoring function owns one set; it is never module-global, since
   portfolio lanes run GA sessions on several domains at once. *)
type tables = {
  app : App.t;
  sw_exec : float array;  (* software time on processor 0 *)
  delay : float array;
  (* per application edge [e]: [delay.(2e)] is 0, [delay.(2e+1)] the
     bus time of its data, so the xor of its ends' sides picks its
     delay without a branch *)
  n_clb : int;
  clb_time : float;  (* reconfiguration time of one CLB *)
  scratch : List_sched.scratch;
  (* Per gene vector, written by [decode] (task contexts, times, edge
     delays and the software chain straight into [flat]). *)
  side : int array;  (* 1 in hardware, 0 in software *)
  time : float array;  (* rank weight: software or selected hw time *)
  rank : float array;
  sw : int array;  (* software tasks in list-scheduled order *)
  mutable n_sw : int;
  flat : Searchgraph.Flat.t;
}

let tables app platform =
  let n = App.size app in
  let speed = Platform.processor_speed platform 0 in
  {
    app;
    sw_exec = Array.map (fun task -> task.Task.sw_time /. speed) app.App.tasks;
    delay =
      Array.init
        (2 * App.edge_count app)
        (fun i ->
          if i land 1 = 0 then 0.0
          else
            let edge = App.edge app (i lsr 1) in
            Platform.transfer_time platform edge.App.kbytes);
    n_clb = Platform.n_clb platform;
    clb_time = Platform.reconfiguration_time platform 1;
    scratch = List_sched.scratch n;
    side = Array.make n 0;
    time = Array.make n 0.0;
    rank = Array.make n 0.0;
    sw = Array.make n 0;
    n_sw = 0;
    flat = Searchgraph.Flat.create app ~contexts:n ~members:n;
  }

let selected t genes v = t.app.App.tasks.(v).Task.impls.(genes.impl.(v))

(* Keeps the software tasks of [t.sw.(0 .. n-1)], in order. *)
let keep_software t =
  let m = ref 0 in
  for i = 0 to App.size t.app - 1 do
    let v = t.sw.(i) in
    if t.side.(v) = 0 then begin
      t.sw.(!m) <- v;
      incr m
    end
  done;
  t.n_sw <- !m

(* [Float.max] with the common case first: one float compare, no
   boxing.  Local to this module, so that it inlines.  It differs from
   [Float.max] only on [fmax (-0.) 0.]; no tail here is -0. *)
let fmax m x =
  if x > m then x
  else if Float.is_nan x || Float.is_nan m then Float.max m x
  else m
[@@inline]

(* The deterministic realization of a gene vector, the single decode
   behind [spec] and [makespan], written into [t.flat] in two sweeps.

   The forward sweep walks the topological order and clusters: a task
   goes to hardware when its gene is set and its selected
   implementation fits the device (one that cannot fit stays in
   software), into the current context while the context's CLBs stay
   within the device, else into a new one.  So contexts are numbered,
   and each one's members listed in [ctx_member], along the
   topological order, and a context's configuration time is set when
   the next one opens.  The software tasks go to [t.sw] in topological
   order.

   The reverse sweep sets each edge's delay (its transfer time when it
   crosses HW/SW: [side] differs at its ends) and each task's HEFT
   upward rank, and checks that every task ranks strictly above its
   tail.  The software order is then a sort by rank where that is the
   list scheduler's order (see [List_sched]), else the heap's software
   restriction. *)
let decode t genes =
  let n = App.size t.app and k = t.flat in
  let tasks = t.app.App.tasks and topo = App.topo t.app in
  let side = t.side and time = t.time and rank = t.rank in
  let contexts = ref 0 and clbs = ref 0 and members = ref 0 in
  let n_sw = ref 0 in
  for i = 0 to n - 1 do
    let v = topo.(i) in
    let a = if genes.hw.(v) then (selected t genes v).Task.clbs else -1 in
    if a >= 0 && a <= t.n_clb then begin
      let hw_time = (selected t genes v).Task.hw_time in
      if !contexts = 0 || !clbs + a > t.n_clb then begin
        if !contexts > 0 then
          k.cfg_time.(!contexts - 1) <- t.clb_time *. float_of_int !clbs;
        incr contexts;
        clbs := 0
      end;
      clbs := !clbs + a;
      k.context.(v) <- !contexts - 1;
      k.exec.(v) <- hw_time;
      time.(v) <- hw_time;
      side.(v) <- 1;
      k.ctx_member.(!members) <- v;
      incr members;
      k.ctx_start.(!contexts) <- !members
    end
    else begin
      k.context.(v) <- -1;
      k.exec.(v) <- t.sw_exec.(v);
      time.(v) <- tasks.(v).Task.sw_time;
      side.(v) <- 0;
      t.sw.(!n_sw) <- v;
      incr n_sw
    end;
    k.next_sw.(v) <- -1
  done;
  if !contexts > 0 then
    k.cfg_time.(!contexts - 1) <- t.clb_time *. float_of_int !clbs;
  k.n_contexts <- !contexts;
  t.n_sw <- !n_sw;
  let outs = App.out_edges t.app and dst = k.dst and weight = k.weight in
  let strict = ref true in
  for i = n - 1 downto 0 do
    let v = topo.(i) in
    let s = side.(v) and tail = ref 0.0 in
    for e = outs.start.(v) to outs.start.(v + 1) - 1 do
      let w = dst.(e) in
      let d = t.delay.((e lsl 1) lor (s lxor side.(w))) in
      weight.(e) <- d;
      tail := fmax !tail (d +. rank.(w))
    done;
    let r = time.(v) +. !tail in
    rank.(v) <- r;
    (* [tail >= delay + rank w >= rank w] for every successor [w]; a
       NaN fails the compare too. *)
    if not (r > !tail) then strict := false
  done;
  if
    not
      (!strict
      && List_sched.sort_descending t.scratch ~priority:rank t.sw t.n_sw)
  then begin
    List_sched.prioritized_topological_order t.scratch t.app ~priority:rank
      ~order:t.sw;
    keep_software t
  end;
  for i = 1 to t.n_sw - 1 do
    k.next_sw.(t.sw.(i - 1)) <- t.sw.(i)
  done

let spec app platform genes =
  let t = tables app platform in
  decode t genes;
  let context = t.flat.context in
  let sw_order = List.init t.n_sw (Array.get t.sw) in
  let bindings =
    Array.map
      (fun j -> if j < 0 then Searchgraph.Sw else Searchgraph.Hw j)
      context
  in
  Searchgraph.single_processor_spec ~app ~platform
    ~binding:(fun v -> bindings.(v))
    ~impl_choice:(fun v -> genes.impl.(v))
    ~sw_order
    ~contexts:(Clustering.members app ~context t.flat.n_contexts)

let makespan t genes =
  decode t genes;
  if Searchgraph.Flat.pass t.flat then t.flat.makespan else infinity
