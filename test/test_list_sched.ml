open Repro_taskgraph
open Repro_arch
module List_sched = Repro_sched.List_sched
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
  ignore
    (Reference.upward_rank app
       ~time:(Array.init (App.size app) time)
       ~comm:(Array.make (App.edge_count app) comm)
       ~rank
      : bool);
  rank

let order_of app ~priority =
  let n = App.size app in
  let order = Array.make n (-1) in
  List_sched.prioritized_topological_order (List_sched.scratch n) app
    ~priority:(Array.init n priority) ~order;
  Array.to_list order

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

let fork_app () =
  (* 0 -> {1, 2} -> 3, with 2 much heavier than 1. *)
  App.make ~name:"fork"
    ~tasks:[ task 0 1.0; task 1 1.0; task 2 9.0; task 3 1.0 ]
    ~edges:[ edge 0 1; edge 0 2; edge 1 3; edge 2 3 ]
    ()

let test_prioritized_topo_order () =
  let app = fork_app () in
  let rank =
    rank_of app ~time:(fun v -> (App.task app v).Task.sw_time) ~comm:0.0
  in
  let order = order_of app ~priority:(Array.get rank) in
  (* The heavy branch (2) must be scheduled before the light one (1). *)
  Alcotest.(check (list int)) "heavy first" [ 0; 2; 1; 3 ] order

(* Equal priorities pop in the order tasks became ready, not by task
   id: 0 and 2 are ready at the start, 1 only after 0 pops, so 2 goes
   before 1. *)
let test_ties_by_readiness () =
  let app =
    App.make ~name:"tie"
      ~tasks:[ task 0 1.0; task 1 1.0; task 2 1.0 ]
      ~edges:[ edge 0 1 ] ()
  in
  Alcotest.(check (list int)) "ready order" [ 0; 2; 1 ]
    (order_of app ~priority:(fun _ -> 1.0))

let test_order_is_topological () =
  let app = fork_app () in
  let order = order_of app ~priority:(fun _ -> 0.0) in
  let position = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.add position v i) order;
  List.iter
    (fun { App.src; dst; kbytes = _ } ->
      Alcotest.(check bool) "edge respected" true
        (Hashtbl.find position src < Hashtbl.find position dst))
    (App.edges app);
  Alcotest.(check int) "complete" 4 (List.length order)

(* Every successor slice is walked in increasing id, whatever order
   the edges were given in: the ready order of equal-priority
   successors does not depend on the input file. *)
let test_successor_order_is_input_independent () =
  let app edges =
    App.make ~name:"fan"
      ~tasks:[ task 0 1.0; task 1 1.0; task 2 1.0; task 3 1.0 ]
      ~edges ()
  in
  let forward = app [ edge 0 1; edge 0 2; edge 0 3 ]
  and backward = app [ edge 0 3; edge 0 2; edge 0 1 ] in
  let flat _ = 1.0 in
  Alcotest.(check (list int)) "forward input" [ 0; 1; 2; 3 ]
    (order_of forward ~priority:flat);
  Alcotest.(check (list int)) "backward input" [ 0; 1; 2; 3 ]
    (order_of backward ~priority:flat)

let test_determinism () =
  let app = fork_app () in
  let order () = order_of app ~priority:float_of_int in
  Alcotest.(check (list int)) "stable across calls" (order ()) (order ())

(* The reference [upward_rank] reports whether every task ranks
   strictly above its successors: a rank absorbed by rounding, or a
   NaN, is not. *)
let test_upward_rank_strictness () =
  let strict ~time app =
    let n = App.size app in
    Reference.upward_rank app ~time:(Array.init n time)
      ~comm:(Array.make (App.edge_count app) 0.0)
      ~rank:(Array.make n 0.0)
  in
  let pair = App.make ~name:"pair" ~tasks:[ task 0 1.0; task 1 1.0 ]
      ~edges:[ edge 0 1 ] ()
  in
  Alcotest.(check bool) "chain" true
    (strict (chain_app ()) ~time:(fun v -> float_of_int (v + 1)));
  Alcotest.(check bool) "1e-20 ahead of 1e3" false
    (strict pair ~time:(function 0 -> 1e-20 | _ -> 1e3));
  Alcotest.(check bool) "NaN at a sink" false
    (strict pair ~time:(function 0 -> 1.0 | _ -> nan))

(* [sort_descending] against [List.stable_sort] on tasks of random
   priorities, nearly descending ones (most merges skipped), ascending
   ones (every insertion and merge at its longest) and few-valued ones
   (ties), up to ~1,100 tasks (a few dozen blocks), with a NaN now and
   then. *)
let qcheck_sort_descending =
  QCheck.Test.make ~name:"sort_descending is a stable descending sort"
    ~count:300
    QCheck.(pair (int_bound 1_100) int)
    (fun (count, seed) ->
      let rng = Rng.create seed in
      let n = count + 2 and shape = Rng.int rng 4 in
      let priority =
        Array.init n (fun i ->
            match shape with
            | 0 -> Rng.float rng 1.0
            | 1 -> float_of_int (n - i) +. Rng.float rng 40.0
            | 2 -> float_of_int i
            | _ -> float_of_int (Rng.int rng 5))
      in
      if Rng.int rng 8 = 0 then priority.(Rng.int rng n) <- nan;
      let tasks = Array.init n Fun.id in
      if shape = 0 || shape = 3 then Rng.shuffle_in_place rng tasks;
      let input = Array.to_list (Array.sub tasks 0 count)
      and spare = Array.sub tasks count 2 in
      let strict =
        List_sched.sort_descending (List_sched.scratch n) ~priority tasks count
      in
      let output = Array.to_list (Array.sub tasks 0 count) in
      let priorities = List.map (Array.get priority) input in
      let has_nan = List.exists Float.is_nan priorities in
      let distinct =
        List.length (List.sort_uniq Float.compare priorities) = count
      in
      List.sort Int.compare output = List.sort Int.compare input
      && Array.sub tasks count 2 = spare
      && strict = ((not has_nan) && distinct)
      && (has_nan
         || output
            = List.stable_sort
                (fun a b -> Float.compare priority.(b) priority.(a))
                input))

(* --- the decoder against the step-by-step reference --- *)

let bits = Int64.bits_of_float

(* [spec]'s contexts and software order are the reference's, the heap's
   order included, and [makespan] on [tables] has the bits of the
   reference spec's makespan: [infinity] exactly where
   [Searchgraph.evaluate] finds the graph cyclic.  Returns whether the
   rank-sort identity applied. *)
let check_decode label app platform tables genes =
  let spec = Gene_decoder.spec app platform genes in
  let d = Reference.decode app platform genes in
  Alcotest.(check (list (list int))) (label ^ ": contexts") d.members
    spec.Searchgraph.contexts;
  Alcotest.(check (list int)) (label ^ ": software order") d.sw_order
    spec.Searchgraph.sw_order;
  let reference =
    match Searchgraph.evaluate (Reference.spec app platform genes d) with
    | Some e ->
      Alcotest.(check bool) (label ^ ": feasible makespan is finite") true
        (Float.is_finite e.Searchgraph.makespan);
      e.makespan
    | None -> infinity
  in
  Alcotest.(check int64) (label ^ ": makespan bits") (bits reference)
    (bits (Gene_decoder.makespan tables genes));
  Reference.sorted d

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

let on_600 app =
  (app, Platform.with_rc_size (Repro_workloads.Suite.platform_for app) 600)

(* Layered graphs of several shapes, ~1,000 tasks the largest; md28;
   every good fixture app on the fixture board; and two retimed graphs
   where the heap must run: unit times (equal software ranks) and times
   of 1e3 or 1e-20 (ranks absorbed by rounding). *)
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
     Array.of_list
       ([
          shape "ga132" ~layers:8 ~width:31 ~edge_probability:0.12
            ~min_size:128 ();
          shape "narrow" ~layers:20 ~width:3 ~edge_probability:0.5
            ~min_size:40 ();
          shape "wide" ~layers:2 ~width:60 ~edge_probability:0.05
            ~min_size:60 ();
          shape "1k" ~layers:8 ~width:250 ~edge_probability:0.015
            ~min_size:1000 ();
          ( "md28",
            Repro_workloads.Motion_detection.app (),
            Repro_workloads.Motion_detection.platform ~n_clb:2000 () );
          (let app, p = on_600 (retimed g ~time:(fun _ -> 1.0)) in
           ("unit times", app, p));
          (let app, p =
             on_600 (retimed g ~time:(fun v -> if v mod 3 = 0 then 1e-20 else 1e3))
           in
           ("absorbed", app, p));
        ]
       @ fixtures))

let decode_tables =
  lazy
    (Array.map
       (fun (_, app, platform) -> Gene_decoder.tables app platform)
       (Lazy.force decode_instances))

let qcheck_decoder_is_the_heap =
  QCheck.Test.make
    ~name:"decoder's software order and makespan are the heap path's"
    ~count:400
    QCheck.(pair (int_bound 100) int)
    (fun (i, seed) ->
      let instances = Lazy.force decode_instances in
      let i = i mod Array.length instances in
      let name, app, platform = instances.(i) in
      let genes = random_genes (Rng.create seed) app in
      ignore
        (check_decode
           (Printf.sprintf "%s seed %d" name seed)
           app platform (Lazy.force decode_tables).(i) genes
          : bool);
      true)

(* Random layered graphs on four kinds of device: one smaller than
   about half the implementations (hardware genes that cannot fit stay
   in software), one that fits a single task per context (the smallest
   implementation's area), and 600 CLBs with every transfer free or
   with every task of equal time (equal software ranks: the heap). *)
let qcheck_decoder_is_the_reference =
  QCheck.Test.make
    ~name:"decoder is the reference on random graphs and devices" ~count:300
    QCheck.(pair (int_bound 3) int)
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
        | _ -> (retimed app ~time:(fun _ -> 1.0), 600)
      in
      let platform =
        Platform.with_rc_size
          (Repro_workloads.Suite.platform_for app)
          (Int.max 1 n_clb)
      in
      ignore
        (check_decode
           (Printf.sprintf "device %d seed %d" device seed)
           app platform
           (Gene_decoder.tables app platform)
           (random_genes rng app)
          : bool);
      true)

(* The property's inputs take both the sort and the heap. *)
let test_decode_inputs_cover () =
  let sorted = ref 0 and heap = ref 0 in
  Array.iteri
    (fun i (name, app, platform) ->
      let rng = Rng.create (i + 1) in
      for k = 1 to 20 do
        if
          check_decode
            (Printf.sprintf "%s vector %d" name k)
            app platform (Lazy.force decode_tables).(i) (random_genes rng app)
        then incr sorted
        else incr heap
      done)
    (Lazy.force decode_instances);
  Alcotest.(check bool)
    (Printf.sprintf "sorted %d, heap %d" !sorted !heap)
    true
    (!sorted > 0 && !heap > 0)

let all_software app =
  {
    Gene_decoder.hw = Array.make (App.size app) false;
    impl = Array.make (App.size app) 0;
  }

let decoded_sw_order app platform genes =
  (Gene_decoder.spec app platform genes).Searchgraph.sw_order

(* Two software tasks of equal rank: 0 forks into a light branch 1 and
   a heavy branch 2, each ending in a leaf of time 1.  The heap readies
   leaf 4 before leaf 3, as branch 2 goes first; a stable sort of the
   topological order [0; 1; 2; 3; 4] would keep 3 first. *)
let test_tie_takes_the_heap () =
  let app =
    App.make ~name:"fork"
      ~tasks:[ task 0 1.0; task 1 2.0; task 2 5.0; task 3 1.0; task 4 1.0 ]
      ~edges:[ edge 0 1; edge 0 2; edge 1 3; edge 2 4 ]
      ()
  in
  let app, platform = on_600 app in
  let genes = all_software app in
  Alcotest.(check (list int)) "heap order" [ 0; 2; 1; 4; 3 ]
    (decoded_sw_order app platform genes);
  ignore
    (check_decode "fork" app platform (Gene_decoder.tables app platform) genes
      : bool)

(* Ranks the sort cannot be trusted with.  A rank absorbed by rounding
   (1e-20 ahead of a successor of rank 1e3) still leaves the heap's
   order non-increasing in rank, so either path gives [0; 1]; the heap
   runs.  A NaN rank, which would make the heap's compares no total
   order, cannot arise: [Task.make] rejects a NaN time. *)
let test_non_strict_takes_the_heap () =
  let absorbed, platform =
    on_600
      (App.make ~name:"absorbed" ~tasks:[ task 0 1e-20; task 1 1e3 ]
         ~edges:[ edge 0 1 ] ())
  in
  Alcotest.(check (list int)) "absorbed" [ 0; 1 ]
    (decoded_sw_order absorbed platform (all_software absorbed));
  Alcotest.check_raises "NaN time rejected"
    (Invalid_argument "Task: implementation with hw_time not finite")
    (fun () ->
      ignore
        (Task.make ~id:1 ~name:"t1" ~functionality:"F" ~sw_time:1.0
           ~impls:[ { Task.clbs = 10; hw_time = nan } ]))

(* One task is always in order, but a NaN priority is never strict: no
   compare between neighbours sees a lone NaN. *)
let test_sort_descending_lone_nan () =
  let strict priority =
    List_sched.sort_descending (List_sched.scratch 1) ~priority [| 0 |] 1
  in
  Alcotest.(check bool) "finite" true (strict [| 1.0 |]);
  Alcotest.(check bool) "NaN" false (strict [| nan |])

let suite =
  [
    Alcotest.test_case "upward rank chain" `Quick test_upward_rank_chain;
    Alcotest.test_case "upward rank comm" `Quick test_upward_rank_comm;
    Alcotest.test_case "prioritized topo order" `Quick test_prioritized_topo_order;
    Alcotest.test_case "ties by readiness" `Quick test_ties_by_readiness;
    Alcotest.test_case "order is topological" `Quick test_order_is_topological;
    Alcotest.test_case "successor order is input-independent" `Quick
      test_successor_order_is_input_independent;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "upward rank strictness" `Quick
      test_upward_rank_strictness;
    QCheck_alcotest.to_alcotest qcheck_sort_descending;
    QCheck_alcotest.to_alcotest qcheck_decoder_is_the_heap;
    QCheck_alcotest.to_alcotest qcheck_decoder_is_the_reference;
    Alcotest.test_case "decode inputs take the sort and the heap" `Quick
      test_decode_inputs_cover;
    Alcotest.test_case "equal software ranks take the heap" `Quick
      test_tie_takes_the_heap;
    Alcotest.test_case "non-strict ranks take the heap" `Quick
      test_non_strict_takes_the_heap;
    Alcotest.test_case "a lone NaN is not strict" `Quick
      test_sort_descending_lone_nan;
  ]
