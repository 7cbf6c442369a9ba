open Repro_taskgraph
open Repro_arch
module Gene_decoder = Repro_sched.Gene_decoder
module Searchgraph = Repro_sched.Searchgraph
module Rng = Repro_util.Rng
module Reference = Decode_reference

let impl = { Task.clbs = 10; hw_time = 0.5 }

let task id sw_time =
  Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F" ~sw_time
    ~impls:[ impl ]

let edge src dst = { App.src; dst; kbytes = 0.0 }

let rank_of app ~time ~comm =
  let rank = Array.make (App.size app) 0.0 in
  Reference.upward_rank app
    ~time:(Array.init (App.size app) time)
    ~comm:(Array.make (App.edge_count app) comm)
    ~rank;
  rank

let chain_app () =
  App.make ~name:"chain"
    ~tasks:[ task 0 1.0; task 1 2.0; task 2 3.0 ]
    ~edges:[ edge 0 1; edge 1 2 ]
    ()

let test_upward_rank_chain () =
  let app = chain_app () in
  let rank =
    rank_of app ~time:(fun v -> (App.task app v).Task.sw_time) ~comm:0.0
  in
  (* Suffix sums along the chain. *)
  Alcotest.(check (float 1e-9)) "rank 2" 3.0 rank.(2);
  Alcotest.(check (float 1e-9)) "rank 1" 5.0 rank.(1);
  Alcotest.(check (float 1e-9)) "rank 0" 6.0 rank.(0)

let test_upward_rank_comm () =
  let app = chain_app () in
  let rank = rank_of app ~time:(fun _ -> 1.0) ~comm:10.0 in
  Alcotest.(check (float 1e-9)) "comm counted" 23.0 rank.(0)

(* --- the decoder against the step-by-step reference --- *)

let bits = Int64.bits_of_float

(* Whether no software task comes after a software task that precedes
   it, directly or through other tasks: [latest.(v)] is the latest
   position of a software ancestor of [v], or -1. *)
let respects_precedence app sw_order =
  let n = App.size app and ins = App.in_edges app in
  let position = Array.make n (-1) and latest = Array.make n (-1) in
  List.iteri (fun i v -> position.(v) <- i) sw_order;
  Array.for_all
    (fun v ->
      for k = ins.start.(v) to ins.start.(v + 1) - 1 do
        let u = ins.node.(k) in
        latest.(v) <- Int.max latest.(v) (Int.max latest.(u) position.(u))
      done;
      position.(v) < 0 || latest.(v) < position.(v))
    (App.topo app)

(* [spec]'s contexts and software order are the reference's, the order
   respects precedence, and [makespan] on [tables] has the bits of the
   reference spec's makespan: [infinity] exactly where
   [Searchgraph.evaluate] finds the graph cyclic. *)
let check_decode label app platform tables genes =
  let spec = Gene_decoder.spec app platform genes in
  let d = Reference.decode app platform genes in
  Alcotest.(check (list (list int))) (label ^ ": contexts") d.members
    spec.Searchgraph.contexts;
  Alcotest.(check (list int)) (label ^ ": software order") d.sw_order
    spec.Searchgraph.sw_order;
  Alcotest.(check bool) (label ^ ": software order respects precedence") true
    (respects_precedence app spec.Searchgraph.sw_order);
  let reference =
    match Searchgraph.evaluate (Reference.spec app platform genes d) with
    | Some e ->
      Alcotest.(check bool) (label ^ ": feasible makespan is finite") true
        (Float.is_finite e.Searchgraph.makespan);
      e.makespan
    | None -> infinity
  in
  Alcotest.(check int64) (label ^ ": makespan bits") (bits reference)
    (bits (Gene_decoder.makespan tables genes))

(* Hardware genes at a random density, 0 and 1 included. *)
let random_genes rng app =
  let n = App.size app in
  let density =
    match Rng.int rng 4 with 0 -> 0.0 | 1 -> 1.0 | _ -> Rng.float rng 1.0
  in
  {
    Gene_decoder.hw = Array.init n (fun _ -> Rng.bernoulli rng density);
    impl = Array.init n (fun v -> Rng.int rng (Task.impl_count (App.task app v)));
  }

let layered ?(edge_probability = 0.3) ~layers ~width ~min_size () =
  let rec find seed =
    let app =
      Generators.layered (Rng.create seed) Generators.default_impl_model
        ~layers ~width ~edge_probability ~mean_sw_time:2.0 ~mean_kbytes:8.0
    in
    if App.size app >= min_size then app else find (seed + 1)
  in
  find 1

(* [app] with every time replaced by [time v] and every transfer
   free. *)
let retimed app ~time =
  App.make ~name:app.App.name
    ~tasks:
      (List.init (App.size app) (fun v ->
           let t = App.task app v in
           Task.make ~id:v ~name:t.Task.name
             ~functionality:t.Task.functionality ~sw_time:(time v)
             ~impls:
               (Array.to_list
                  (Array.map (fun i -> { i with Task.hw_time = time v })
                     t.Task.impls))))
    ~edges:(List.map (fun e -> { e with App.kbytes = 0.0 }) (App.edges app))
    ()

(* [n] independent tasks of times [time v]: ranks are the times, so
   increasing times rise along the topological order. *)
let antichain n ~time =
  App.make ~name:"antichain"
    ~tasks:
      (List.init n (fun v ->
           Task.make ~id:v ~name:(Printf.sprintf "t%d" v) ~functionality:"F"
             ~sw_time:(time v)
             ~impls:[ { Task.clbs = 10 + (v mod 50); hw_time = time v } ]))
    ~edges:[] ()

(* One of five times per task, scattered over the ids. *)
let five_valued v = float_of_int (1 + (v * 7 mod 5))

let on_600 app =
  (app, Platform.with_rc_size (Repro_workloads.Suite.platform_for app) 600)

(* Layered graphs of several shapes, ~1,000 tasks the largest; md28;
   every good fixture app on the fixture board; the sort's hard inputs:
   1,100 independent tasks whose ranks rise along the topological order
   (every insertion and merge at its longest), and unit or five-valued
   times on a small and a ~1,000-task graph (heavy ties); and times of
   1e3 or 1e-20 (ranks absorbed by rounding, so a task ties with its
   successor).  Random genes leave all 1,000-odd tasks of the large
   inputs in software a quarter of the time, so the sort crosses its
   32-task blocks and its merges. *)
let decode_instances =
  lazy
    (let board =
       match Platform_io.load (Filename.concat "fixtures" "good_board.plat") with
       | Ok p -> p
       | Error msg -> failwith msg
     in
     let fixtures =
       Sys.readdir "fixtures" |> Array.to_list |> List.sort compare
       |> List.filter (fun f ->
              String.starts_with ~prefix:"good_" f
              && Filename.check_suffix f ".tg")
       |> List.map (fun f ->
              match App_io.load (Filename.concat "fixtures" f) with
              | Ok app -> (f, app, board)
              | Error msg -> failwith msg)
     in
     let shape name ~layers ~width ?edge_probability ~min_size () =
       let app, platform =
         on_600 (layered ~layers ~width ?edge_probability ~min_size ())
       in
       (name, app, platform)
     in
     let g = layered ~layers:5 ~width:6 ~min_size:20 () in
     let big =
       layered ~layers:8 ~width:250 ~edge_probability:0.015 ~min_size:1000 ()
     in
     let retimed_on_600 name app ~time =
       let app, p = on_600 (retimed app ~time) in
       (name, app, p)
     in
     Array.of_list
       ([
          shape "ga132" ~layers:8 ~width:31 ~edge_probability:0.12
            ~min_size:128 ();
          shape "narrow" ~layers:20 ~width:3 ~edge_probability:0.5
            ~min_size:40 ();
          shape "wide" ~layers:2 ~width:60 ~edge_probability:0.05
            ~min_size:60 ();
          (let app, p = on_600 big in
           ("1k", app, p));
          ( "md28",
            Repro_workloads.Motion_detection.app (),
            Repro_workloads.Motion_detection.platform ~n_clb:2000 () );
          (let app, p =
             on_600 (antichain 1_100 ~time:(fun v -> float_of_int (v + 1)))
           in
           ("rising", app, p));
          retimed_on_600 "unit times" g ~time:(fun _ -> 1.0);
          retimed_on_600 "1k unit times" big ~time:(fun _ -> 1.0);
          retimed_on_600 "1k five-valued times" big ~time:five_valued;
          retimed_on_600 "absorbed" g ~time:(fun v ->
              if v mod 3 = 0 then 1e-20 else 1e3);
        ]
       @ fixtures))

let decode_tables =
  lazy
    (Array.map
       (fun (_, app, platform) -> Gene_decoder.tables app platform)
       (Lazy.force decode_instances))

let qcheck_decoder_on_instances =
  QCheck.Test.make
    ~name:"decoder's software order and makespan are the reference's"
    ~count:400
    QCheck.(pair (int_bound 100) int)
    (fun (i, seed) ->
      let instances = Lazy.force decode_instances in
      let i = i mod Array.length instances in
      let name, app, platform = instances.(i) in
      let genes = random_genes (Rng.create seed) app in
      check_decode
        (Printf.sprintf "%s seed %d" name seed)
        app platform (Lazy.force decode_tables).(i) genes;
      true)

(* Random layered graphs on four kinds of device: one smaller than
   about half the implementations (hardware genes that cannot fit stay
   in software), one that fits a single task per context (the smallest
   implementation's area), and 600 CLBs with every transfer free or
   with every task of equal time (equal software ranks).  Then, on 600
   CLBs, five-valued times (heavy ties), and up to 1,100 independent
   tasks of rising ranks, so the sort's blocks and merges meet every
   kind of boundary. *)
let qcheck_decoder_is_the_reference =
  QCheck.Test.make
    ~name:"decoder is the reference on random graphs and devices" ~count:300
    QCheck.(pair (int_bound 5) int)
    (fun (device, seed) ->
      let rng = Rng.create seed in
      let app =
        Generators.layered rng Generators.default_impl_model
          ~layers:(1 + Rng.int rng 8) ~width:(1 + Rng.int rng 12)
          ~edge_probability:(Rng.float rng 0.6) ~mean_sw_time:2.0
          ~mean_kbytes:8.0
      in
      let areas =
        Array.concat
          (List.map
             (fun t -> Array.map (fun i -> i.Task.clbs) t.Task.impls)
             (Array.to_list app.App.tasks))
      in
      Array.sort Int.compare areas;
      let app, n_clb =
        match device with
        | 0 -> (app, areas.(Array.length areas / 2))
        | 1 -> (app, areas.(0))
        | 2 ->
          ( App.make ~name:app.App.name
              ~tasks:(Array.to_list app.App.tasks)
              ~edges:
                (List.map
                   (fun e -> { e with App.kbytes = 0.0 })
                   (App.edges app))
              (),
            600 )
        | 3 -> (retimed app ~time:(fun _ -> 1.0), 600)
        | 4 -> (retimed app ~time:five_valued, 600)
        | _ ->
          ( antichain (1 + Rng.int rng 1_100) ~time:(fun v ->
                float_of_int (v + 1) +. Rng.float rng 0.5),
            600 )
      in
      let platform =
        Platform.with_rc_size
          (Repro_workloads.Suite.platform_for app)
          (Int.max 1 n_clb)
      in
      check_decode
        (Printf.sprintf "device %d seed %d" device seed)
        app platform
        (Gene_decoder.tables app platform)
        (random_genes rng app);
      true)

let all_software app =
  {
    Gene_decoder.hw = Array.make (App.size app) false;
    impl = Array.make (App.size app) 0;
  }

let decoded_sw_order app platform genes =
  (Gene_decoder.spec app platform genes).Searchgraph.sw_order

(* Two software tasks of equal rank keep their topological order: 0
   forks into a light branch 1 and a heavy branch 2, each ending in a
   leaf of time 1.  The heavy branch goes first, but the leaves tie, so
   3 stays ahead of 4 as in the topological order [0; 1; 2; 3; 4]. *)
let test_ties_keep_topological_order () =
  let app =
    App.make ~name:"fork"
      ~tasks:[ task 0 1.0; task 1 2.0; task 2 5.0; task 3 1.0; task 4 1.0 ]
      ~edges:[ edge 0 1; edge 0 2; edge 1 3; edge 2 4 ]
      ()
  in
  let app, platform = on_600 app in
  let genes = all_software app in
  Alcotest.(check (list int)) "tie order" [ 0; 2; 1; 3; 4 ]
    (decoded_sw_order app platform genes);
  check_decode "fork" app platform (Gene_decoder.tables app platform) genes

(* --- pinned decodes: the rank order and the clustering --- *)

let fork_app () =
  (* 0 -> {1, 2} -> 3, with 2 much heavier than 1. *)
  App.make ~name:"fork"
    ~tasks:[ task 0 1.0; task 1 1.0; task 2 9.0; task 3 1.0 ]
    ~edges:[ edge 0 1; edge 0 2; edge 1 3; edge 2 3 ]
    ()

(* Decodes [genes] and checks the result against the reference too. *)
let decoded ?(n_clb = 600) app genes =
  let platform =
    Platform.with_rc_size (Repro_workloads.Suite.platform_for app) n_clb
  in
  check_decode app.App.name app platform
    (Gene_decoder.tables app platform)
    genes;
  Gene_decoder.spec app platform genes

let hardware app hw =
  { Gene_decoder.hw = Array.init (App.size app) hw;
    impl = Array.make (App.size app) 0 }

let test_heavy_branch_first () =
  let app = fork_app () in
  Alcotest.(check (list int)) "heavy first" [ 0; 2; 1; 3 ]
    (decoded app (all_software app)).Searchgraph.sw_order

(* With every time equal, ranks fall along each edge, so the order is
   topological and complete. *)
let test_order_is_topological () =
  let app = retimed (fork_app ()) ~time:(fun _ -> 1.0) in
  let order = (decoded app (all_software app)).Searchgraph.sw_order in
  let position = Array.make (App.size app) (-1) in
  List.iteri (fun i v -> position.(v) <- i) order;
  List.iter
    (fun { App.src; dst; kbytes = _ } ->
      Alcotest.(check bool) "edge respected" true
        (position.(src) < position.(dst)))
    (App.edges app);
  Alcotest.(check int) "complete" 4 (List.length order)

(* Equal-rank successors decode in [App.topo]'s order, which follows
   the order the edges were given in: [Graph.add_edge] conses each
   successor in front, so the fan's later edges are released first. *)
let test_equal_successors_follow_topo () =
  let app edges =
    App.make ~name:"fan"
      ~tasks:[ task 0 1.0; task 1 1.0; task 2 1.0; task 3 1.0 ]
      ~edges ()
  in
  let check label expected app =
    Alcotest.(check (list int)) (label ^ ": App.topo") expected
      (Array.to_list (App.topo app));
    Alcotest.(check (list int)) label expected
      (decoded app (all_software app)).Searchgraph.sw_order
  in
  check "forward input" [ 0; 1; 2; 3 ]
    (app [ edge 0 1; edge 0 2; edge 0 3 ]);
  check "backward input" [ 0; 3; 2; 1 ]
    (app [ edge 0 3; edge 0 2; edge 0 1 ])

(* The sort's three kinds of input at their largest, on 1,100
   independent tasks (35 blocks): ranks rising along the topological
   order (every insertion and merge at its longest), falling (every
   merge skipped) and five-valued (ties across blocks and merges). *)
let check_antichain_order label ~time ~expected =
  let app = antichain 1_100 ~time in
  Alcotest.(check (list int)) label (expected app)
    (decoded app (all_software app)).Searchgraph.sw_order

let test_rising_ranks () =
  check_antichain_order "descending ranks"
    ~time:(fun v -> float_of_int (v + 1))
    ~expected:(fun app -> List.rev (Array.to_list (App.topo app)))

let test_falling_ranks () =
  check_antichain_order "input order"
    ~time:(fun v -> float_of_int (2_000 - v))
    ~expected:(fun app -> Array.to_list (App.topo app))

let test_five_valued_ranks () =
  check_antichain_order "stable descending" ~time:five_valued
    ~expected:(fun app ->
      List.stable_sort
        (fun a b -> Float.compare (five_valued b) (five_valued a))
        (Array.to_list (App.topo app)))

(* A rank absorbed by rounding ties with its successor's: 0 (1e-20)
   precedes 1 (1e3) and ranks exactly as 1 and the independent 2 do.
   The three ties keep [App.topo]'s order, which releases the sources
   0 and 2 before 1, so 0 stays ahead of its successor. *)
let test_absorbed_rank_keeps_precedence () =
  let app =
    App.make ~name:"absorbed"
      ~tasks:[ task 0 1e-20; task 1 1e3; task 2 1e3 ]
      ~edges:[ edge 0 1 ] ()
  in
  let rank =
    rank_of app ~time:(fun v -> (App.task app v).Task.sw_time) ~comm:0.0
  in
  Alcotest.(check int64) "0 ties with 1" (bits rank.(1)) (bits rank.(0));
  Alcotest.(check int64) "1 ties with 2" (bits rank.(2)) (bits rank.(1));
  Alcotest.(check (list int)) "topological tie order" [ 0; 2; 1 ]
    (decoded app (all_software app)).Searchgraph.sw_order

let test_hardware_leaves_software_order () =
  let app = fork_app () in
  let spec = decoded app (hardware app (fun v -> v = 2)) in
  Alcotest.(check (list int)) "software order" [ 0; 1; 3 ]
    spec.Searchgraph.sw_order;
  Alcotest.(check (list (list int))) "contexts" [ [ 2 ] ]
    spec.Searchgraph.contexts

(* A chain of 10-CLB tasks on a 25-CLB device: two per context. *)
let test_clustering_fills_contexts () =
  let app =
    App.make ~name:"chain5"
      ~tasks:(List.init 5 (fun v -> task v 1.0))
      ~edges:(List.init 4 (fun v -> edge v (v + 1)))
      ()
  in
  let spec = decoded ~n_clb:25 app (hardware app (fun _ -> true)) in
  Alcotest.(check (list (list int))) "contexts" [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    spec.Searchgraph.contexts;
  Alcotest.(check (list int)) "no software" [] spec.Searchgraph.sw_order

(* A hardware gene whose implementation is larger than the device
   stays in software, and the clustering goes on past it. *)
let test_oversized_gene_stays_in_software () =
  let big v =
    Task.make ~id:v ~name:(Printf.sprintf "t%d" v) ~functionality:"F"
      ~sw_time:1.0
      ~impls:[ { Task.clbs = 40; hw_time = 0.5 } ]
  in
  let app =
    App.make ~name:"oversized"
      ~tasks:[ task 0 1.0; big 1; task 2 1.0 ]
      ~edges:[ edge 0 1; edge 1 2 ] ()
  in
  let spec = decoded ~n_clb:25 app (hardware app (fun _ -> true)) in
  Alcotest.(check (list (list int))) "contexts" [ [ 0; 2 ] ]
    spec.Searchgraph.contexts;
  Alcotest.(check (list int)) "software" [ 1 ] spec.Searchgraph.sw_order

(* Contexts fill along the topological order, not the task ids: the
   chain 2 -> 1 -> 0 packs 2 and 1 first. *)
let test_contexts_follow_topological_order () =
  let app =
    App.make ~name:"reversed"
      ~tasks:(List.init 3 (fun v -> task v 1.0))
      ~edges:[ edge 2 1; edge 1 0 ] ()
  in
  let spec = decoded ~n_clb:20 app (hardware app (fun _ -> true)) in
  Alcotest.(check (list (list int))) "contexts" [ [ 2; 1 ]; [ 0 ] ]
    spec.Searchgraph.contexts

let suite =
  [
    Alcotest.test_case "upward rank chain" `Quick test_upward_rank_chain;
    Alcotest.test_case "upward rank comm" `Quick test_upward_rank_comm;
    QCheck_alcotest.to_alcotest qcheck_decoder_on_instances;
    QCheck_alcotest.to_alcotest qcheck_decoder_is_the_reference;
    Alcotest.test_case "equal software ranks keep topological order" `Quick
      test_ties_keep_topological_order;
    Alcotest.test_case "prioritized topo order" `Quick test_heavy_branch_first;
    Alcotest.test_case "order is topological" `Quick test_order_is_topological;
    Alcotest.test_case "equal successors follow App.topo" `Quick
      test_equal_successors_follow_topo;
    Alcotest.test_case "rising ranks across blocks" `Quick test_rising_ranks;
    Alcotest.test_case "falling ranks across blocks" `Quick test_falling_ranks;
    Alcotest.test_case "five-valued ranks across blocks" `Quick
      test_five_valued_ranks;
    Alcotest.test_case "absorbed rank keeps precedence" `Quick
      test_absorbed_rank_keeps_precedence;
    Alcotest.test_case "hardware leaves the software order" `Quick
      test_hardware_leaves_software_order;
    Alcotest.test_case "clustering fills contexts" `Quick
      test_clustering_fills_contexts;
    Alcotest.test_case "oversized gene stays in software" `Quick
      test_oversized_gene_stays_in_software;
    Alcotest.test_case "contexts follow the topological order" `Quick
      test_contexts_follow_topological_order;
  ]
