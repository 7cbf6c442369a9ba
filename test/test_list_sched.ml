open Repro_taskgraph
module List_sched = Repro_sched.List_sched

let impl = { Task.clbs = 10; hw_time = 0.5 }

let task id sw_time =
  Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F" ~sw_time
    ~impls:[ impl ]

let edge src dst = { App.src; dst; kbytes = 0.0 }

let rank_of app ~time ~comm =
  let rank = Array.make (App.size app) 0.0 in
  List_sched.upward_rank app
    ~time:(Array.init (App.size app) time)
    ~comm:(Array.make (App.edge_count app) comm)
    ~rank;
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
  ]
