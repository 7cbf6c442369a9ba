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
  merge : int array;  (* [sort_descending]'s merge buffer *)
  (* Per gene vector, written by [decode] (task contexts, times, edge
     delays and the software chain straight into [flat]). *)
  side : int array;  (* 1 in hardware, 0 in software *)
  time : float array;  (* rank weight: software or selected hw time *)
  rank : float array;
  sw : int array;  (* software tasks, in decoded order *)
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
    merge = Array.make n 0;
    side = Array.make n 0;
    time = Array.make n 0.0;
    rank = Array.make n 0.0;
    sw = Array.make n 0;
    n_sw = 0;
    flat = Searchgraph.Flat.create app ~contexts:n ~members:n;
  }

let selected t genes v = t.app.App.tasks.(v).Task.impls.(genes.impl.(v))

(* Sorts [tasks.(0 .. count-1)] by descending [priority], stably:
   insertion sort in blocks, then bottom-up merges through [merge].
   O(n log n) at worst, and near linear on the input the decoder gives,
   tasks in topological order, along which ranks fall.  Both phases are
   stable, and a merge whose halves are already in order is skipped.
   Blocks of 32 timed best of 8 to 64 on the decoder's inputs. *)
let block = 32

let sort_descending ~merge ~(priority : float array) tasks count =
  let lo = ref 0 in
  while !lo < count do
    let hi = Int.min count (!lo + block) in
    for i = !lo + 1 to hi - 1 do
      let v = tasks.(i) in
      let p = priority.(v) and j = ref i in
      while !j > !lo && priority.(tasks.(!j - 1)) < p do
        tasks.(!j) <- tasks.(!j - 1);
        decr j
      done;
      tasks.(!j) <- v
    done;
    lo := hi
  done;
  let width = ref block in
  while !width < count do
    let lo = ref 0 in
    while !lo + !width < count do
      let mid = !lo + !width in
      let hi = Int.min count (mid + !width) in
      if priority.(tasks.(mid - 1)) < priority.(tasks.(mid)) then begin
        let len = mid - !lo in
        Array.blit tasks !lo merge 0 len;
        let i = ref 0 and j = ref mid and k = ref !lo in
        while !i < len && !j < hi do
          let u = merge.(!i) and w = tasks.(!j) in
          if priority.(w) > priority.(u) then begin
            tasks.(!k) <- w;
            incr j
          end
          else begin
            tasks.(!k) <- u;
            incr i
          end;
          incr k
        done;
        Array.blit merge !i tasks !k (len - !i)
      end;
      lo := hi
    done;
    width := 2 * !width
  done

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
   upward rank.  The software order is then [t.sw] sorted by
   descending rank; the sort is stable, so equal ranks keep their
   topological positions. *)
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
  for i = n - 1 downto 0 do
    let v = topo.(i) in
    let s = side.(v) and tail = ref 0.0 in
    for e = outs.start.(v) to outs.start.(v + 1) - 1 do
      let w = dst.(e) in
      let d = t.delay.((e lsl 1) lor (s lxor side.(w))) in
      weight.(e) <- d;
      tail := fmax !tail (d +. rank.(w))
    done;
    rank.(v) <- time.(v) +. !tail
  done;
  sort_descending ~merge:t.merge ~priority:rank t.sw t.n_sw;
  for i = 1 to t.n_sw - 1 do
    k.next_sw.(t.sw.(i - 1)) <- t.sw.(i)
  done

(* The members of each of the [count] contexts, contexts in execution
   order and members in topological order, where [context.(v)] is the
   0-based position of task [v]'s context, or -1 in software. *)
let members app ~context count =
  let lists = Array.make count [] in
  let topo = App.topo app in
  for i = Array.length topo - 1 downto 0 do
    let v = topo.(i) in
    let j = context.(v) in
    if j >= 0 then lists.(j) <- v :: lists.(j)
  done;
  Array.to_list lists

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
    ~contexts:(members app ~context t.flat.n_contexts)

let makespan t genes =
  decode t genes;
  if Searchgraph.Flat.pass t.flat then t.flat.makespan else infinity
