module Graph = Repro_taskgraph.Graph
module Bitset = Repro_util.Bitset

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 2;
  Graph.add_edge g 1 3;
  Graph.add_edge g 2 3;
  g

let test_basic_edges () =
  let g = diamond () in
  Alcotest.(check int) "size" 4 (Graph.size g);
  Alcotest.(check int) "edges" 4 (Graph.edge_count g);
  Alcotest.(check bool) "has 0->1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "no 1->0" false (Graph.has_edge g 1 0);
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ]
    (List.sort compare (Graph.succs g 0));
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ]
    (List.sort compare (Graph.preds g 3));
  Alcotest.(check int) "out degree" 2 (Graph.out_degree g 0);
  Alcotest.(check int) "in degree" 2 (Graph.in_degree g 3)

let test_duplicate_and_selfloop () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 1;
  Alcotest.(check int) "idempotent insert" 1 (Graph.edge_count g);
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1)

let test_remove_edge () =
  let g = diamond () in
  Graph.remove_edge g 0 1;
  Alcotest.(check bool) "removed" false (Graph.has_edge g 0 1);
  Alcotest.(check int) "count" 3 (Graph.edge_count g);
  Graph.remove_edge g 0 1 (* idempotent *);
  Alcotest.(check int) "still 3" 3 (Graph.edge_count g)

let test_copy_independent () =
  let g = diamond () in
  let h = Graph.copy g in
  Graph.remove_edge h 0 1;
  Alcotest.(check bool) "original untouched" true (Graph.has_edge g 0 1)

let valid_topological_order g order =
  let position = Array.make (Graph.size g) (-1) in
  Array.iteri (fun i v -> position.(v) <- i) order;
  Array.for_all (fun p -> p >= 0) position
  && List.for_all (fun (u, v) -> position.(u) < position.(v)) (Graph.edges g)

let test_topological_order () =
  let g = diamond () in
  match Graph.topological_order g with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some order ->
    Alcotest.(check bool) "valid order" true (valid_topological_order g order)

let test_cycle_detection () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Alcotest.(check bool) "acyclic" true (Graph.is_dag g);
  Graph.add_edge g 2 0;
  Alcotest.(check bool) "cyclic" false (Graph.is_dag g);
  Alcotest.(check bool) "no order" true (Graph.topological_order g = None)

let test_reachable () =
  let g = diamond () in
  let r = Graph.reachable_from g 0 in
  Alcotest.(check (list int)) "0 reaches all others" [ 1; 2; 3 ]
    (Bitset.to_list r);
  let r3 = Graph.reachable_from g 3 in
  Alcotest.(check (list int)) "3 reaches nothing" [] (Bitset.to_list r3)

let test_transitive_closure () =
  let g = diamond () in
  let closure = Graph.transitive_closure g in
  Alcotest.(check (list int)) "closure of 0" [ 1; 2; 3 ]
    (Bitset.to_list closure.(0));
  Alcotest.(check (list int)) "closure of 1" [ 3 ] (Bitset.to_list closure.(1));
  Alcotest.(check (list int)) "closure of 3" [] (Bitset.to_list closure.(3))

let test_longest_path () =
  let g = diamond () in
  let weights = [| 1.0; 5.0; 2.0; 1.0 |] in
  let finish =
    Graph.longest_path g
      ~node_weight:(fun v -> weights.(v))
      ~edge_weight:(fun _ _ -> 0.0)
  in
  Alcotest.(check (float 1e-9)) "finish 0" 1.0 finish.(0);
  Alcotest.(check (float 1e-9)) "finish 1" 6.0 finish.(1);
  Alcotest.(check (float 1e-9)) "finish 2" 3.0 finish.(2);
  Alcotest.(check (float 1e-9)) "finish 3 through slow branch" 7.0 finish.(3)

let test_longest_path_edge_weights () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1;
  let finish =
    Graph.longest_path g
      ~node_weight:(fun _ -> 1.0)
      ~edge_weight:(fun _ _ -> 2.5)
  in
  Alcotest.(check (float 1e-9)) "edge delay counted" 4.5 finish.(1)

let test_longest_path_cyclic_rejected () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Alcotest.check_raises "cyclic"
    (Invalid_argument "Graph.longest_path: cyclic graph") (fun () ->
      ignore
        (Graph.longest_path g ~node_weight:(fun _ -> 1.0)
           ~edge_weight:(fun _ _ -> 0.0)))

(* Random DAG generator for property tests: edges only from lower to
   higher ids, hence always acyclic. *)
let random_dag_gen =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    let all_pairs =
      List.concat
        (List.init n (fun u -> List.init (n - u - 1) (fun k -> (u, u + k + 1))))
    in
    let pick (u, v) = map (fun keep -> if keep then Some (u, v) else None) bool in
    map
      (fun kept -> (n, List.filter_map Fun.id kept))
      (flatten_l (List.map pick all_pairs)))

let random_dag_arb =
  QCheck.make ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges)))
    random_dag_gen

let build (n, edges) =
  let g = Graph.create n in
  List.iter (fun (u, v) -> Graph.add_edge g u v) edges;
  g

let qcheck_topo_valid =
  QCheck.Test.make ~name:"topological order respects every edge" ~count:300
    random_dag_arb (fun spec ->
      let g = build spec in
      match Graph.topological_order g with
      | None -> false
      | Some order -> valid_topological_order g order)

let qcheck_closure_matches_reachable =
  QCheck.Test.make ~name:"transitive closure matches DFS reachability"
    ~count:200 random_dag_arb (fun spec ->
      let g = build spec in
      let closure = Graph.transitive_closure g in
      List.for_all
        (fun v -> Bitset.equal closure.(v) (Graph.reachable_from g v))
        (List.init (Graph.size g) Fun.id))

let suite =
  [
    Alcotest.test_case "basic edges" `Quick test_basic_edges;
    Alcotest.test_case "duplicate/self-loop" `Quick test_duplicate_and_selfloop;
    Alcotest.test_case "remove edge" `Quick test_remove_edge;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
    Alcotest.test_case "longest path" `Quick test_longest_path;
    Alcotest.test_case "longest path edge weights" `Quick
      test_longest_path_edge_weights;
    Alcotest.test_case "cyclic longest path rejected" `Quick
      test_longest_path_cyclic_rejected;
    QCheck_alcotest.to_alcotest qcheck_topo_valid;
    QCheck_alcotest.to_alcotest qcheck_closure_matches_reachable;
  ]
