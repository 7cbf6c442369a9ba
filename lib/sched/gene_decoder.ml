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
  platform : Platform.t;
  sw_exec : float array;  (* software time on processor 0 *)
  transfer : float array;  (* bus time of each application edge's data *)
  scratch : List_sched.scratch;
  (* Per gene vector, written by [plan] (task contexts and edge delays
     straight into [flat]) and [load]. *)
  area : int array;  (* CLBs asked for in hardware, -1 for software *)
  time : float array;  (* rank weight: software or selected hw time *)
  rank : float array;
  sw : int array;  (* software tasks in list-scheduled order *)
  mutable n_sw : int;
  ctx_clbs : int array;
  flat : Searchgraph.Flat.t;
}

let tables app platform =
  let n = App.size app in
  let speed = Platform.processor_speed platform 0 in
  {
    app;
    platform;
    sw_exec = Array.map (fun task -> task.Task.sw_time /. speed) app.App.tasks;
    transfer =
      Array.init (App.edge_count app) (fun i ->
          Platform.transfer_time platform (App.edge app i).App.kbytes);
    scratch = List_sched.scratch n;
    area = Array.make n (-1);
    time = Array.make n 0.0;
    rank = Array.make n 0.0;
    sw = Array.make n 0;
    n_sw = 0;
    ctx_clbs = Array.make n 0;
    flat = Searchgraph.Flat.create app ~contexts:n ~members:n;
  }

let selected t genes v = t.app.App.tasks.(v).Task.impls.(genes.impl.(v))

(* Keeps the software tasks of [tasks.(0 .. n-1)], in order, in
   [t.sw]; [tasks] may be [t.sw] itself. *)
let keep_software t tasks =
  let m = ref 0 in
  for i = 0 to App.size t.app - 1 do
    let v = tasks.(i) in
    if t.flat.context.(v) < 0 then begin
      t.sw.(!m) <- v;
      incr m
    end
  done;
  t.n_sw <- !m

(* The deterministic realization of a gene vector, the single planner
   behind [spec] and [makespan]: temporal partitioning by clustering
   (a hardware gene whose implementation cannot fit the device stays in
   software), then the software order by list scheduling on upward
   ranks: a sort by rank where that is the heap's order (see
   [List_sched]), else the heap's software restriction.  Fills [t]'s
   per-gene-vector buffers. *)
let plan t genes =
  let n = App.size t.app in
  let context = t.flat.context and comm = t.flat.weight in
  for v = 0 to n - 1 do
    t.area.(v) <- (if genes.hw.(v) then (selected t genes v).Task.clbs else -1)
  done;
  t.flat.n_contexts <-
    Clustering.contexts t.app ~limit:(Platform.n_clb t.platform) ~area:t.area
      ~context;
  for v = 0 to n - 1 do
    t.time.(v) <-
      (if context.(v) < 0 then t.app.App.tasks.(v).Task.sw_time
       else (selected t genes v).Task.hw_time)
  done;
  (* A transfer costs only across the HW/SW boundary. *)
  let outs = App.out_edges t.app in
  for v = 0 to n - 1 do
    for k = outs.start.(v) to outs.start.(v + 1) - 1 do
      let e = outs.edge.(k) in
      comm.(e) <-
        (if context.(v) < 0 <> (context.(outs.node.(k)) < 0) then
           t.transfer.(e)
         else 0.0)
    done
  done;
  let strict = List_sched.upward_rank t.app ~time:t.time ~comm ~rank:t.rank in
  keep_software t (App.topo t.app);
  if
    not
      (strict
      && List_sched.sort_descending t.scratch ~priority:t.rank t.sw t.n_sw)
  then begin
    List_sched.prioritized_topological_order t.scratch t.app
      ~priority:t.rank ~order:t.sw;
    keep_software t t.sw
  end

let spec app platform genes =
  let t = tables app platform in
  plan t genes;
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

(* The rest of the planned gene vector's pass arrays, the structure
   [spec] describes: each task's time on its resource, the software
   chain along the list-scheduled order, and the contexts as slices of
   [ctx_member] — clustering numbers them along the topological order,
   so each context's members are consecutive there. *)
let load t =
  let n = App.size t.app and k = t.flat and members = ref 0 in
  let nc = k.n_contexts and context = k.context and topo = App.topo t.app in
  Array.fill t.ctx_clbs 0 nc 0;
  for i = 0 to n - 1 do
    let v = topo.(i) in
    let j = context.(v) in
    if j >= 0 then begin
      k.exec.(v) <- t.time.(v);
      k.ctx_member.(!members) <- v;
      incr members;
      k.ctx_start.(j + 1) <- !members;
      t.ctx_clbs.(j) <- t.ctx_clbs.(j) + t.area.(v)
    end
    else k.exec.(v) <- t.sw_exec.(v);
    k.next_sw.(v) <- -1
  done;
  for j = 0 to nc - 1 do
    k.cfg_time.(j) <- Platform.reconfiguration_time t.platform t.ctx_clbs.(j)
  done;
  for i = 1 to t.n_sw - 1 do
    k.next_sw.(t.sw.(i - 1)) <- t.sw.(i)
  done

let makespan t genes =
  plan t genes;
  load t;
  if Searchgraph.Flat.pass t.flat then t.flat.makespan else infinity
