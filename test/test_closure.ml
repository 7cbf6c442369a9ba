module Graph = Repro_taskgraph.Graph
module Closure = Repro_taskgraph.Closure
module App = Repro_taskgraph.App
module Generators = Repro_taskgraph.Generators
module Bitset = Repro_util.Bitset
module Rng = Repro_util.Rng
module Solution = Repro_dse.Solution
module Md = Repro_workloads.Motion_detection

let diamond () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 2;
  Graph.add_edge g 1 3;
  Graph.add_edge g 2 3;
  g

let test_reaches () =
  let c = Closure.of_graph (diamond ()) in
  Alcotest.(check bool) "0 -> 3" true (Closure.reaches c 0 3);
  Alcotest.(check bool) "1 -> 3" true (Closure.reaches c 1 3);
  Alcotest.(check bool) "3 -> 0" false (Closure.reaches c 3 0);
  Alcotest.(check bool) "1 -> 2 unrelated" false (Closure.reaches c 1 2);
  Alcotest.(check bool) "not reflexive" false (Closure.reaches c 0 0)

let test_reaches_range () =
  let c = Closure.of_graph (diamond ()) in
  List.iter
    (fun (u, v) ->
      Alcotest.check_raises
        (Printf.sprintf "(%d, %d)" u v)
        (Invalid_argument "Closure.reaches: node out of range") (fun () ->
          ignore (Closure.reaches c u v)))
    [ (-1, 0); (0, -1); (4, 0); (0, 4) ]

let test_of_graph_rejects_cycle () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Alcotest.check_raises "cyclic input"
    (Invalid_argument "Graph.transitive_closure: cyclic graph") (fun () ->
      ignore (Closure.of_graph g))

let all_pairs n f =
  List.for_all (fun u -> List.for_all (f u) (List.init n Fun.id)) (List.init n Fun.id)

let test_edge_free () =
  let c = Closure.of_graph (Graph.create 5) in
  Alcotest.(check bool) "no pair reaches" true
    (all_pairs 5 (fun u v -> not (Closure.reaches c u v)))

let test_chain () =
  let n = 6 in
  let g = Graph.create n in
  for v = 1 to n - 1 do Graph.add_edge g (v - 1) v done;
  let c = Closure.of_graph g in
  Alcotest.(check bool) "u reaches v iff u < v" true
    (all_pairs n (fun u v -> Closure.reaches c u v = (u < v)))

(* An edge implied by a longer path adds no reachability. *)
let test_redundant_edge () =
  let g = diamond () in
  let base = Closure.of_graph g in
  Graph.add_edge g 0 3;
  let with_redundant = Closure.of_graph g in
  Alcotest.(check bool) "same matrix" true
    (all_pairs 4 (fun u v ->
         Closure.reaches base u v = Closure.reaches with_redundant u v))

(* Random DAGs whose edges follow a random permutation of the ids, so
   an edge may run from a higher id to a lower one. *)
let permuted_dag_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    map Array.of_list (shuffle_l (List.init n Fun.id)) >>= fun rank ->
    let pairs =
      List.concat
        (List.init n (fun u -> List.init (n - u - 1) (fun k -> (u, u + k + 1))))
    in
    map
      (fun picked ->
        (n, List.filteri (fun i _ -> List.nth picked i) pairs
            |> List.map (fun (u, v) -> (rank.(u), rank.(v)))))
      (flatten_l (List.map (fun _ -> bool) pairs)))

let build (n, edges) =
  let g = Graph.create n in
  List.iter (fun (u, v) -> Graph.add_edge g u v) edges;
  g

let qcheck_reaches_matches_dfs =
  QCheck.Test.make ~count:300 ~name:"reaches matches DFS reachability"
    (QCheck.make permuted_dag_gen) (fun ((n, _) as spec) ->
      let g = build spec in
      let c = Closure.of_graph g in
      List.for_all
        (fun u ->
          let r = Graph.reachable_from g u in
          List.for_all
            (fun v -> Closure.reaches c u v = (u <> v && Bitset.mem r v))
            (List.init n Fun.id))
        (List.init n Fun.id))

let qcheck_reaches_order =
  QCheck.Test.make ~count:300 ~name:"reaches is transitive and antisymmetric"
    (QCheck.make permuted_dag_gen) (fun ((n, _) as spec) ->
      let c = Closure.of_graph (build spec) in
      let reaches = Closure.reaches c in
      all_pairs n (fun u v ->
          (not (reaches u v && reaches v u))
          && List.for_all
               (fun w -> (not (reaches u v && reaches v w)) || reaches u w)
               (List.init n Fun.id)))

let same_reachability a b n =
  all_pairs n (fun u v -> Closure.reaches a u v = Closure.reaches b u v)

(* [App.make]'s matrix answers like one built from the application's
   graph, on a parsed file and on generated shapes. *)
let test_app_closure_matches () =
  let apps =
    (match Repro_taskgraph.App_io.load "../data/motion_detection.tg" with
     | Ok app -> app
     | Error msg -> Alcotest.fail msg)
    :: List.map
         (fun seed ->
           Generators.layered (Rng.create seed) Generators.default_impl_model
             ~layers:5 ~width:4 ~edge_probability:0.3 ~mean_sw_time:2.0
             ~mean_kbytes:5.0)
         [ 1; 2; 3 ]
  in
  List.iter
    (fun app ->
      Alcotest.(check bool) (app.App.name ^ " matches of_graph") true
        (same_reachability (App.closure app)
           (Closure.of_graph app.App.graph) (App.size app)))
    apps

(* One matrix per application: every call and every solution of the
   application read the same value. *)
let test_app_closure_shared () =
  let app = Md.app () and platform = Md.platform () in
  let clo = App.closure app in
  Alcotest.(check bool) "one value per app" true (App.closure app == clo);
  List.iter
    (fun (label, s) ->
      Alcotest.(check bool) label true (App.closure (Solution.app s) == clo))
    [
      ("all_software", Solution.all_software app platform);
      ("random", Solution.random (Rng.create 7) app platform);
    ]

let suite =
  [
    Alcotest.test_case "reaches" `Quick test_reaches;
    Alcotest.test_case "reaches range check" `Quick test_reaches_range;
    Alcotest.test_case "of_graph rejects cycle" `Quick test_of_graph_rejects_cycle;
    Alcotest.test_case "edge-free graph" `Quick test_edge_free;
    Alcotest.test_case "chain" `Quick test_chain;
    Alcotest.test_case "redundant edge" `Quick test_redundant_edge;
    Alcotest.test_case "App.closure matches of_graph" `Quick
      test_app_closure_matches;
    Alcotest.test_case "App.closure shared" `Quick test_app_closure_shared;
    QCheck_alcotest.to_alcotest qcheck_reaches_matches_dfs;
    QCheck_alcotest.to_alcotest qcheck_reaches_order;
  ]
