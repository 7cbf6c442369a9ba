open Repro_taskgraph
open Repro_arch
open Repro_sched

let impl clbs hw_time = { Task.clbs; hw_time }

(* A(2ms) -> B(4ms) -> C(1ms), 8 kB on each edge.  Bus 80 kB/ms with
   0.05 ms latency => each crossing costs 0.15 ms.  DRLC: 100 CLBs,
   0.01 ms/CLB. *)
let app () =
  let t id name sw_time impls =
    Task.make ~id ~name ~functionality:"F" ~sw_time ~impls
  in
  App.make ~name:"abc" ~deadline:10.0
    ~tasks:
      [
        t 0 "A" 2.0 [ impl 10 1.0 ];
        t 1 "B" 4.0 [ impl 50 1.0; impl 80 0.5 ];
        t 2 "C" 1.0 [ impl 10 1.0 ];
      ]
    ~edges:[ { App.src = 0; dst = 1; kbytes = 8.0 };
             { App.src = 1; dst = 2; kbytes = 8.0 } ]
    ()

let platform () =
  Platform.make ~name:"test"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.01 "rc")
    ~bus:{ Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
    ()

let spec ?(impl_choice = fun _ -> 0) ~binding ~sw_order ~contexts () =
  Searchgraph.single_processor_spec ~app:(app ()) ~platform:(platform ())
    ~binding ~impl_choice ~sw_order ~contexts

let checkf = Alcotest.(check (float 1e-9))

let test_all_software () =
  let s =
    spec
      ~binding:(fun _ -> Searchgraph.Sw)
      ~sw_order:[ 0; 1; 2 ] ~contexts:[] ()
  in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    checkf "makespan = sum of sw times" 7.0 e.Searchgraph.makespan;
    checkf "no reconfig" 0.0 e.Searchgraph.initial_reconfig;
    checkf "no comm" 0.0 e.Searchgraph.comm;
    Alcotest.(check int) "no context" 0 e.Searchgraph.n_contexts

let test_sw_order_gaps () =
  (* Independent sw tasks serialized by Esw: makespan = sum, not CP. *)
  let tasks =
    [
      Task.make ~id:0 ~name:"x" ~functionality:"F" ~sw_time:3.0
        ~impls:[ impl 1 1.0 ];
      Task.make ~id:1 ~name:"y" ~functionality:"F" ~sw_time:5.0
        ~impls:[ impl 1 1.0 ];
    ]
  in
  let independent = App.make ~name:"ind" ~tasks ~edges:[] () in
  let s =
    Searchgraph.single_processor_spec ~app:independent ~platform:(platform ())
      ~binding:(fun _ -> Searchgraph.Sw)
      ~impl_choice:(fun _ -> 0)
      ~sw_order:[ 1; 0 ] ~contexts:[]
  in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e -> checkf "processor serializes" 8.0 e.Searchgraph.makespan

let test_hw_middle_task () =
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s = spec ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] () in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    (* A: 0..2; comm 0.15; cfg: 0..0.5; B: 2.15..3.15; comm 0.15;
       C: 3.3..4.3 *)
    checkf "makespan" 4.3 e.Searchgraph.makespan;
    checkf "initial reconfig (50 CLB x 0.01)" 0.5 e.Searchgraph.initial_reconfig;
    checkf "dynamic reconfig" 0.0 e.Searchgraph.dynamic_reconfig;
    checkf "comm both crossings" 0.3 e.Searchgraph.comm;
    Alcotest.(check int) "one context" 1 e.Searchgraph.n_contexts

let test_hw_impl_choice () =
  (* The faster implementation costs more area, hence more reconfig:
     cfg = 0.8, B runs 0.5.  B start = max(2.15, 0.8) = 2.15. *)
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s =
    spec
      ~impl_choice:(fun v -> if v = 1 then 1 else 0)
      ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] ()
  in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    checkf "makespan with fast impl" 3.8 e.Searchgraph.makespan;
    checkf "bigger reconfig" 0.8 e.Searchgraph.initial_reconfig

let test_two_contexts () =
  (* A in context 1, C in context 2, B on the processor. *)
  let binding v =
    if v = 0 then Searchgraph.Hw 0
    else if v = 2 then Searchgraph.Hw 1
    else Searchgraph.Sw
  in
  let s = spec ~binding ~sw_order:[ 1 ] ~contexts:[ [ 0 ]; [ 2 ] ] () in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    (* cfg1 0.1; A 0.1..1.1; comm 0.15; B 1.25..5.25; comm 0.15; cfg2
       after A and cfg1: 1.1..1.2; C max(5.4, 1.2)..6.4 *)
    checkf "makespan" 6.4 e.Searchgraph.makespan;
    checkf "initial" 0.1 e.Searchgraph.initial_reconfig;
    checkf "dynamic" 0.1 e.Searchgraph.dynamic_reconfig;
    Alcotest.(check int) "two contexts" 2 e.Searchgraph.n_contexts

let test_reversed_contexts_infeasible () =
  (* C's context before A's while A precedes C: cyclic. *)
  let binding v =
    if v = 0 then Searchgraph.Hw 1
    else if v = 2 then Searchgraph.Hw 0
    else Searchgraph.Sw
  in
  let s = spec ~binding ~sw_order:[ 1 ] ~contexts:[ [ 2 ]; [ 0 ] ] () in
  Alcotest.(check bool) "infeasible" true (Searchgraph.evaluate s = None)

let test_bad_sw_order_infeasible () =
  let s =
    spec
      ~binding:(fun _ -> Searchgraph.Sw)
      ~sw_order:[ 2; 0; 1 ] ~contexts:[] ()
  in
  Alcotest.(check bool) "C before A contradicts precedence" true
    (Searchgraph.evaluate s = None)

let test_exec_time_and_clbs () =
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s = spec ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] () in
  checkf "sw exec" 2.0 (Searchgraph.exec_time s 0);
  checkf "hw exec" 1.0 (Searchgraph.exec_time s 1);
  Alcotest.(check int) "context clbs" 50 (Searchgraph.context_clbs s [ 1 ]);
  Alcotest.(check int) "clbs of empty" 0 (Searchgraph.context_clbs s [])

let test_schedule_extraction () =
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s = spec ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] () in
  match Searchgraph.schedule s with
  | None -> Alcotest.fail "feasible"
  | Some windows ->
    let start v = fst windows.(v) and stop v = snd windows.(v) in
    checkf "A starts at 0" 0.0 (start 0);
    checkf "A stops at 2" 2.0 (stop 0);
    checkf "B starts after comm" 2.15 (start 1);
    checkf "C stops at makespan" 4.3 (stop 2)

let test_build_exposes_cfg_nodes () =
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s = spec ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] () in
  let g, node_weight, _ = Searchgraph.build s in
  Alcotest.(check int) "3 tasks + 1 cfg node" 4 (Graph.size g);
  checkf "cfg weight is the reconfiguration" 0.5 (node_weight 3);
  Alcotest.(check bool) "cfg precedes its member" true (Graph.has_edge g 3 1)

(* --- the flat pass against the built search graph ------------------ *)

module Rng = Repro_util.Rng

let bits = Int64.bits_of_float

(* What the evaluators computed before the flat pass, kept as the
   reference: [Graph.longest_path] over [build]'s graph, with the
   reconfiguration and comm terms read off [build]'s weights. *)
let reference spec =
  let g, node_weight, edge_weight = Searchgraph.build spec in
  if not (Graph.is_dag g) then None
  else begin
    let n = App.size spec.Searchgraph.app and total = Graph.size g in
    let finish = Graph.longest_path g ~node_weight ~edge_weight in
    let dynamic = ref 0.0 in
    for j = n + 1 to total - 1 do
      dynamic := !dynamic +. node_weight j
    done;
    let terms =
      Array.of_list
        (List.map
           (fun { App.src; dst; kbytes = _ } -> edge_weight src dst)
           (App.edges spec.Searchgraph.app))
    in
    Some
      {
        Searchgraph.makespan = Array.fold_left Float.max 0.0 finish;
        initial_reconfig = (if total > n then node_weight n else 0.0);
        dynamic_reconfig = !dynamic;
        comm = Searchgraph.Comm.total (Searchgraph.Comm.create terms);
        n_contexts = total - n;
        finish;
      }
  end

(* The §3.3 model as a second graph: one node per crossing transfer,
   chained in the order of (source, destination) positions in
   [Graph.topological_order] of the built graph. *)
let serialized_reference spec =
  let app = spec.Searchgraph.app in
  let base, base_weight, _ = Searchgraph.build spec in
  match Graph.topological_order base with
  | None -> None
  | Some order ->
    let n = App.size app and base_size = Graph.size base in
    let position = Array.make base_size 0 in
    Array.iteri (fun i v -> position.(v) <- i) order;
    let crossing u v = u < n && v < n && Searchgraph.crossing spec u v in
    let transactions =
      List.sort
        (fun a b ->
          compare
            (position.(a.App.src), position.(a.App.dst))
            (position.(b.App.src), position.(b.App.dst)))
        (List.filter (fun e -> crossing e.App.src e.App.dst) (App.edges app))
    in
    let m = List.length transactions in
    let g = Graph.create (base_size + m) in
    Graph.iter_edges
      (fun u v -> if not (crossing u v) then Graph.add_edge g u v)
      base;
    let transfer = Array.make m 0.0 in
    List.iteri
      (fun i { App.src; dst; kbytes } ->
        let txn = base_size + i in
        transfer.(i) <- Platform.transfer_time spec.Searchgraph.platform kbytes;
        Graph.add_edge g src txn;
        Graph.add_edge g txn dst;
        if i > 0 then Graph.add_edge g (txn - 1) txn)
      transactions;
    let weight v =
      if v < base_size then base_weight v else transfer.(v - base_size)
    in
    let finish =
      Graph.longest_path g ~node_weight:weight ~edge_weight:(fun _ _ -> 0.0)
    in
    let dynamic = ref 0.0 in
    for j = n + 1 to base_size - 1 do
      dynamic := !dynamic +. base_weight j
    done;
    Some
      {
        Searchgraph.makespan = Array.fold_left Float.max 0.0 finish;
        initial_reconfig = (if base_size > n then base_weight n else 0.0);
        dynamic_reconfig = !dynamic;
        comm = Array.fold_left ( +. ) 0.0 transfer;
        n_contexts = base_size - n;
        finish = Array.sub finish 0 base_size;
      }

let same_eval label expected actual =
  let f what a b =
    if bits a <> bits b then
      Alcotest.failf "%s: %s %h, reference %h" label what b a
  in
  match (expected, actual) with
  | None, None -> ()
  | Some _, None -> Alcotest.failf "%s: None on an acyclic graph" label
  | None, Some _ -> Alcotest.failf "%s: Some on a cyclic graph" label
  | Some (r : Searchgraph.eval), Some (e : Searchgraph.eval) ->
    f "makespan" r.makespan e.makespan;
    f "initial_reconfig" r.initial_reconfig e.initial_reconfig;
    f "dynamic_reconfig" r.dynamic_reconfig e.dynamic_reconfig;
    f "comm" r.comm e.comm;
    Alcotest.(check int) (label ^ ": n_contexts") r.n_contexts e.n_contexts;
    Alcotest.(check int) (label ^ ": nodes") (Array.length r.finish)
      (Array.length e.finish);
    Array.iteri (fun v x -> f (Printf.sprintf "finish.(%d)" v) x e.finish.(v))
      r.finish

(* Every reading of the pass against its reference; true when the spec
   is feasible. *)
let check_spec label spec =
  let expected = reference spec in
  same_eval (label ^ " evaluate") expected (Searchgraph.evaluate spec);
  same_eval (label ^ " evaluate_serialized") (serialized_reference spec)
    (Searchgraph.evaluate_serialized spec);
  (match (expected, Searchgraph.schedule spec) with
   | None, None -> ()
   | Some r, Some windows ->
     Array.iteri
       (fun v (start, stop) ->
         let f = r.Searchgraph.finish.(v) in
         if bits stop <> bits f
            || bits start <> bits (f -. Searchgraph.exec_time spec v)
         then Alcotest.failf "%s schedule: task %d" label v)
       windows
   | _ -> Alcotest.failf "%s schedule: feasibility differs" label);
  expected <> None

let asic_count platform =
  List.length
    (List.filter
       (function Resource.Asic _ -> true | _ -> false)
       platform.Platform.extra)

(* A random spec: each task on a random processor, the circuit or an
   ASIC, with a random implementation.  Three in four draw one random
   topological order for every chain and context (feasible); the rest
   a random permutation (mostly cyclic).  The hardware tasks of that
   order are cut into up to four consecutive contexts, some possibly
   empty, and each context's member list is shuffled. *)
let random_spec rng app platform =
  let n = App.size app in
  let order =
    if Rng.int rng 4 = 0 then begin
      let perm = Array.init n Fun.id in
      Rng.shuffle_in_place rng perm;
      perm
    end
    else begin
      let level = Array.make n 0 in
      Array.iter
        (fun v ->
          List.iter
            (fun w -> level.(w) <- max level.(w) (level.(v) + 1))
            (Graph.succs app.App.graph v))
        (App.topo app);
      let key = Array.init n (fun v -> (level.(v), Rng.int rng 1_000_000, v)) in
      let perm = Array.init n Fun.id in
      Array.sort (fun a b -> compare key.(a) key.(b)) perm;
      perm
    end
  in
  let procs = Platform.processor_count platform in
  let asics = asic_count platform in
  let resource =
    Array.init n (fun _ ->
        match Rng.int rng 4 with
        | 0 when asics > 0 -> `Asic (Rng.int rng asics)
        | 0 | 1 -> `Hw
        | _ -> `Sw (Rng.int rng procs))
  in
  let hw = List.filter (fun v -> resource.(v) = `Hw) (Array.to_list order) in
  let n_ctx = if hw = [] then 0 else 1 + Rng.int rng 4 in
  let cuts =
    List.sort compare
      (List.init (max 0 (n_ctx - 1)) (fun _ ->
           Rng.int rng (List.length hw + 1)))
  in
  let context = Array.make n (-1) in
  let rec chunk j i cuts = function
    | [] -> []
    | v :: rest as all -> (
      match cuts with
      | c :: cuts' when c <= i -> [] :: chunk (j + 1) i cuts' all
      | _ ->
        context.(v) <- j;
        (match chunk j (i + 1) cuts rest with
         | here :: later -> (v :: here) :: later
         | [] -> [ [ v ] ]))
  in
  let contexts =
    if n_ctx = 0 then []
    else
      let cs = chunk 0 0 cuts hw in
      cs @ List.init (n_ctx - List.length cs) (fun _ -> [])
  in
  let contexts =
    List.map
      (fun members ->
        let a = Array.of_list members in
        Rng.shuffle_in_place rng a;
        Array.to_list a)
      contexts
  in
  let on p =
    List.filter (fun v -> resource.(v) = `Sw p) (Array.to_list order)
  in
  {
    Searchgraph.app;
    platform;
    binding =
      (fun v ->
        match resource.(v) with
        | `Sw _ -> Searchgraph.Sw
        | `Hw -> Searchgraph.Hw (max 0 context.(v))
        | `Asic a -> Searchgraph.On_asic a);
    impl_choice =
      (let c =
         Array.init n (fun v -> Rng.int rng (Task.impl_count (App.task app v)))
       in
       fun v -> c.(v));
    sw_order = on 0;
    contexts;
    proc_of =
      (fun v -> match resource.(v) with `Sw p -> p | `Hw | `Asic _ -> 0);
    extra_sw_orders = List.init (procs - 1) (fun p -> on (p + 1));
  }

let fixture name load =
  match load (Filename.concat "fixtures" name) with
  | Ok x -> x
  | Error msg -> Alcotest.fail msg

let layered seed ~layers ~width =
  Generators.layered (Rng.create seed) Generators.default_impl_model ~layers
    ~width ~edge_probability:0.3 ~mean_sw_time:2.0 ~mean_kbytes:8.0

(* Fixture apps on the fixture board (two processors, an ASIC), the
   multiprocessor and ASIC tests' own settings, and layered graphs. *)
let instances =
  lazy
    (let board = fixture "good_board.plat" Platform_io.load in
     let dual = Test_multiproc.dual_platform ~dsp_speed:2.0 () in
     [|
       ("abc", app (), platform ());
       ("tiny/board", fixture "good_tiny.tg" App_io.load, board);
       ("diamond/board", fixture "good_diamond.tg" App_io.load, board);
       ("independent/dual", Test_multiproc.independent_app (), dual);
       ("fan/asic", Test_asic.app (), Test_asic.platform ());
       ("layered/board", layered 5 ~layers:4 ~width:5, board);
       ("layered/dual", layered 6 ~layers:5 ~width:4, dual);
       ("layered/asic", layered 7 ~layers:3 ~width:6, Test_asic.platform ());
     |])

let qcheck_flat_matches_build =
  QCheck.Test.make ~name:"flat pass = longest path over build, bit for bit"
    ~count:400
    QCheck.(pair (int_bound 7) int)
    (fun (i, seed) ->
      let name, app, platform = (Lazy.force instances).(i) in
      let spec = random_spec (Rng.create seed) app platform in
      ignore (check_spec (Printf.sprintf "%s seed %d" name seed) spec : bool);
      true)

(* The property's inputs reach a feasible spec on every instance, and
   cyclic ones too. *)
let test_flat_inputs_cover () =
  let cyclic = ref 0 in
  Array.iter
    (fun (name, app, platform) ->
      let feasible = ref 0 in
      for seed = 1 to 40 do
        if check_spec name (random_spec (Rng.create seed) app platform) then
          incr feasible
        else incr cyclic
      done;
      Alcotest.(check bool) (name ^ ": some feasible spec") true
        (!feasible > 0))
    (Lazy.force instances);
  Alcotest.(check bool)
    (Printf.sprintf "some cyclic specs (%d)" !cyclic)
    true (!cyclic >= 20)

(* A chain pair that repeats an application edge is one search-graph
   edge.  Task 0's application edges are 0 -> 2, then 0 -> 1 (latest
   input first); its chain successor 2 repeats the first, and 1 sits on
   the ASIC.  Were the pair a second edge, 2 would leave the FIFO after
   1, and the transactions 2 -> 3 and 1 -> 3 would swap on the bus. *)
let test_chain_repeats_app_edge () =
  let app = fixture "good_diamond.tg" App_io.load in
  let board = fixture "good_board.plat" Platform_io.load in
  let spec =
    {
      Searchgraph.app;
      platform = board;
      binding =
        (function
          | 1 -> Searchgraph.On_asic 0
          | 3 -> Searchgraph.Hw 0
          | _ -> Searchgraph.Sw);
      impl_choice = (fun _ -> 0);
      sw_order = [ 0; 2 ];
      contexts = [ [ 3 ] ];
      proc_of = (fun _ -> 0);
      extra_sw_orders = [];
    }
  in
  Alcotest.(check bool) "feasible" true (check_spec "diamond chain" spec)

(* The GA's makespan is the kernel's makespan of the decoded spec, and
   [infinity] exactly where the kernel finds a cycle. *)
let test_gene_decoder_is_the_kernel () =
  Array.iter
    (fun (name, app, platform) ->
      let n = App.size app in
      let tables = Gene_decoder.tables app platform in
      let rng = Rng.create 3 in
      for k = 1 to 60 do
        let density = Rng.float rng 1.0 in
        let genes =
          {
            Gene_decoder.hw = Array.init n (fun _ -> Rng.bernoulli rng density);
            impl =
              Array.init n (fun v ->
                  Rng.int rng (Task.impl_count (App.task app v)));
          }
        in
        let label = Printf.sprintf "%s chromosome %d" name k in
        let spec = Gene_decoder.spec app platform genes in
        let makespan = Gene_decoder.makespan tables genes in
        match Searchgraph.evaluate spec with
        | None ->
          Alcotest.(check bool) (label ^ ": cyclic scores infinity") true
            (makespan = infinity)
        | Some e ->
          Alcotest.(check int64) (label ^ ": makespan")
            (bits e.Searchgraph.makespan) (bits makespan)
      done)
    (Lazy.force instances)

(* [Flat.pass_from] on a kernel filled by hand: six tasks in three
   application pairs 0 -> 1, 2 -> 3, 4 -> 5, and at most one context.
   A restart
   must give what a full pass over a fresh kernel with the same inputs
   gives: every finish time, the makespan and the verdict. *)
let six () =
  let t id =
    Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F"
      ~sw_time:1.0 ~impls:[ impl 10 1.0 ]
  in
  App.make ~name:"six" ~tasks:(List.init 6 t)
    ~edges:
      [ { App.src = 0; dst = 1; kbytes = 1.0 };
        { App.src = 2; dst = 3; kbytes = 1.0 };
        { App.src = 4; dst = 5; kbytes = 1.0 } ]
    ()

let six_exec = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |]
let six_weight = [| 0.5; 0.25; 0.125 |]

(* A kernel holding [exec], the fixed edge weights, the chain [links]
   (pairs [u, w]: w follows u) and, given [cfg], one context. *)
let six_kernel ?(cfg = 0.0) app exec links =
  let k = Searchgraph.Flat.create app ~contexts:1 ~members:2 in
  Array.blit exec 0 k.exec 0 (Array.length exec);
  Array.blit six_weight 0 k.weight 0 (Array.length six_weight);
  List.iter (fun (u, w) -> k.next_sw.(u) <- w; k.prev_sw.(w) <- u) links;
  if cfg > 0.0 then begin
    (* One context holding tasks 3 and 5, configured in [cfg]. *)
    k.context.(3) <- 0;
    k.context.(5) <- 0;
    k.ctx_member.(0) <- 3;
    k.ctx_member.(1) <- 5;
    k.ctx_start.(1) <- 2;
    k.cfg_time.(0) <- cfg;
    k.n_contexts <- 1
  end;
  k

let same_as_full ?cfg label app (k : Searchgraph.Flat.t) exec links acyclic =
  let full = six_kernel ?cfg app exec links in
  Alcotest.(check bool) (label ^ ": verdict") (Searchgraph.Flat.pass full)
    acyclic;
  if acyclic then begin
    Alcotest.(check int64) (label ^ ": makespan") (bits full.makespan)
      (bits k.makespan);
    Array.iteri
      (fun v f ->
        Alcotest.(check int64) (Printf.sprintf "%s: task %d" label v) (bits f)
          (bits k.time.(v)))
      (Array.sub full.time 0 (App.size app))
  end

let no_window = (max_int, -1)

let first_pass (k : Searchgraph.Flat.t) =
  let lo, hi = no_window in
  Alcotest.(check bool) "first pass acyclic" true
    (Searchgraph.Flat.pass_from k 0 ~lo ~hi)

let test_pass_from_zero_records () =
  let app = six () in
  let k = six_kernel app six_exec [] in
  let lo, hi = no_window in
  let acyclic = Searchgraph.Flat.pass_from k 0 ~lo ~hi in
  same_as_full "from 0" app k six_exec [] acyclic;
  let running = ref 0.0 in
  Array.iteri
    (fun i x ->
      Alcotest.(check int) (Printf.sprintf "position of %d" x) i
        k.position.(x);
      running := Float.max !running k.time.(x);
      Alcotest.(check int64) (Printf.sprintf "prefix at %d" i) (bits !running)
        (bits k.prefix.(i)))
    (Array.sub k.order 0 6)

(* A later node's time changes: the restart at its slot keeps the
   prefix and gives the full pass's times; so does a restart earlier
   than needed. *)
let test_pass_from_suffix () =
  let app = six () in
  let k = six_kernel app six_exec [] in
  first_pass k;
  let exec = Array.copy six_exec in
  let last = k.order.(5) and early = k.position.(1) in
  exec.(last) <- 9.5;
  k.exec.(last) <- 9.5;
  let lo, hi = no_window in
  let acyclic = Searchgraph.Flat.pass_from k 5 ~lo ~hi in
  same_as_full "restart at the changed slot" app k exec [] acyclic;
  exec.(1) <- 0.75;
  k.exec.(1) <- 0.75;
  let acyclic = Searchgraph.Flat.pass_from k (early - 1) ~lo ~hi in
  same_as_full "restart before the changed slot" app k exec [] acyclic

(* A chain link 5 -> 0 runs backward in the last order: the window
   between its ends is re-sorted, and 0 now starts after 5. *)
let test_pass_from_window () =
  let app = six () in
  let k = six_kernel app six_exec [] in
  first_pass k;
  let p0 = k.position.(0) and p5 = k.position.(5) in
  Alcotest.(check bool) "the link runs backward" true (p5 > p0);
  k.next_sw.(5) <- 0;
  k.prev_sw.(0) <- 5;
  let acyclic = Searchgraph.Flat.pass_from k p0 ~lo:p0 ~hi:p5 in
  same_as_full "window" app k six_exec [ (5, 0) ] acyclic;
  Alcotest.(check bool) "0 after 5" true (k.position.(0) > k.position.(5))

(* A link 3 -> 2 closes a cycle with the edge 2 -> 3 inside the window:
   the restart (after slot 0, so a partial one) finds it and leaves the
   last acyclic order in place. *)
let test_pass_from_cycle () =
  let app = six () in
  let k = six_kernel app six_exec [] in
  first_pass k;
  let order = Array.sub k.order 0 6 and p2 = k.position.(2)
  and p3 = k.position.(3) in
  Alcotest.(check bool) "a restart after slot 0" true (p2 > 0);
  k.next_sw.(3) <- 2;
  k.prev_sw.(2) <- 3;
  let acyclic = Searchgraph.Flat.pass_from k p2 ~lo:p2 ~hi:p3 in
  Alcotest.(check bool) "cyclic" false acyclic;
  same_as_full "cycle" app k six_exec [ (3, 2) ] acyclic;
  Alcotest.(check (array int)) "last acyclic order kept" order
    (Array.sub k.order 0 6);
  Array.iteri
    (fun i x -> Alcotest.(check int) "position kept" i k.position.(x))
    order

(* A configuration node's time changes: the restart at its slot gives
   the full pass's times for its members and what follows them. *)
let test_pass_from_configuration () =
  let app = six () in
  let k = six_kernel ~cfg:2.5 app six_exec [] in
  first_pass k;
  let slot = k.position.(6) in
  Alcotest.(check bool) "the context's node after slot 0" true (slot > 0);
  k.cfg_time.(0) <- 7.25;
  let lo, hi = no_window in
  let acyclic = Searchgraph.Flat.pass_from k slot ~lo ~hi in
  same_as_full ~cfg:7.25 "configuration" app k six_exec [] acyclic;
  Alcotest.(check int64) "task 5 waits for the configuration"
    (bits (7.25 +. 6.0)) (bits k.time.(5))

let suite =
  [
    Alcotest.test_case "all software" `Quick test_all_software;
    Alcotest.test_case "sw order serializes" `Quick test_sw_order_gaps;
    Alcotest.test_case "hw middle task" `Quick test_hw_middle_task;
    Alcotest.test_case "hw impl choice" `Quick test_hw_impl_choice;
    Alcotest.test_case "two contexts" `Quick test_two_contexts;
    Alcotest.test_case "reversed contexts infeasible" `Quick
      test_reversed_contexts_infeasible;
    Alcotest.test_case "bad sw order infeasible" `Quick
      test_bad_sw_order_infeasible;
    Alcotest.test_case "exec time and clbs" `Quick test_exec_time_and_clbs;
    Alcotest.test_case "schedule extraction" `Quick test_schedule_extraction;
    Alcotest.test_case "build exposes cfg nodes" `Quick
      test_build_exposes_cfg_nodes;
    QCheck_alcotest.to_alcotest qcheck_flat_matches_build;
    Alcotest.test_case "flat pass inputs reach both verdicts" `Quick
      test_flat_inputs_cover;
    Alcotest.test_case "chain pair repeating an application edge" `Quick
      test_chain_repeats_app_edge;
    Alcotest.test_case "pass_from 0 records positions and prefix" `Quick
      test_pass_from_zero_records;
    Alcotest.test_case "pass_from a changed slot keeps the prefix" `Quick
      test_pass_from_suffix;
    Alcotest.test_case "pass_from re-sorts a backward link's window" `Quick
      test_pass_from_window;
    Alcotest.test_case "pass_from finds a cycle in the window" `Quick
      test_pass_from_cycle;
    Alcotest.test_case "pass_from restarts at a configuration node" `Quick
      test_pass_from_configuration;
    Alcotest.test_case "gene decoder makespan is the kernel's" `Quick
      test_gene_decoder_is_the_kernel;
  ]
