module Graph = Repro_taskgraph.Graph
module Closure = Repro_sched.Closure
module Bitset = Repro_util.Bitset

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

let test_add_edge_updates () =
  let c = Closure.of_graph (diamond ()) in
  Closure.add_edge c 1 2;
  Alcotest.(check bool) "1 -> 2 now" true (Closure.reaches c 1 2);
  Alcotest.(check bool) "0 -> 2 still" true (Closure.reaches c 0 2);
  (* Ancestors of 1 gained nothing new towards 3 (already reachable). *)
  Alcotest.(check bool) "2 -> 1 still impossible" false (Closure.reaches c 2 1)

let test_add_edge_propagates () =
  (* 0->1  2->3, then adding 1->2 must connect 0 to 3. *)
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 2 3;
  let c = Closure.of_graph g in
  Alcotest.(check bool) "0 -/-> 3" false (Closure.reaches c 0 3);
  Closure.add_edge c 1 2;
  Alcotest.(check bool) "0 -> 3 through the new edge" true (Closure.reaches c 0 3);
  Alcotest.(check bool) "0 -> 2" true (Closure.reaches c 0 2);
  Alcotest.(check bool) "1 -> 3" true (Closure.reaches c 1 3)

(* [add_edge] rejects exactly the edges that close a cycle, a self
   loop included, and takes a redundant one. *)
let test_add_edge_rejects_cycle () =
  let closes u v =
    match Closure.add_edge (Closure.of_graph (diamond ())) u v with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Closure.add_edge: closes a cycle") (fun () ->
      Closure.add_edge (Closure.of_graph (diamond ())) 3 0);
  Alcotest.(check bool) "self loop closes" true (closes 1 1);
  Alcotest.(check bool) "1 -> 2 fine" false (closes 1 2);
  Alcotest.(check bool) "redundant 0 -> 3 fine" false (closes 0 3)

let test_of_graph_rejects_cycle () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Alcotest.check_raises "cyclic input"
    (Invalid_argument "Graph.transitive_closure: cyclic graph") (fun () ->
      ignore (Closure.of_graph g))

let test_descendants () =
  let c = Closure.of_graph (diamond ()) in
  Alcotest.(check (list int)) "descendants of 0" [ 1; 2; 3 ]
    (Bitset.to_list (Closure.descendants c 0))

(* Random incremental scenario: build a DAG edge by edge through the
   closure, and compare against a from-scratch closure at the end. *)
let qcheck_incremental_matches_batch =
  let gen =
    QCheck.Gen.(
      int_range 2 10 >>= fun n ->
      let all_pairs =
        List.concat
          (List.init n (fun u -> List.init (n - u - 1) (fun k -> (u, u + k + 1))))
      in
      map (fun picked -> (n, List.filteri (fun i _ -> List.nth picked i) all_pairs))
        (flatten_l (List.map (fun _ -> bool) all_pairs)))
  in
  QCheck.Test.make ~count:300
    ~name:"incremental closure equals batch closure"
    (QCheck.make gen) (fun (n, edges) ->
      let incremental = Closure.of_graph (Graph.create n) in
      let g = Graph.create n in
      List.iter
        (fun (u, v) ->
          match Closure.add_edge incremental u v with
          | () -> Graph.add_edge g u v
          | exception Invalid_argument _ -> ())
        edges;
      let batch = Closure.of_graph g in
      List.for_all
        (fun u ->
          List.for_all
            (fun v -> Closure.reaches incremental u v = Closure.reaches batch u v)
            (List.init n Fun.id))
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "reaches" `Quick test_reaches;
    Alcotest.test_case "add_edge updates" `Quick test_add_edge_updates;
    Alcotest.test_case "add_edge propagates" `Quick test_add_edge_propagates;
    Alcotest.test_case "add_edge rejects cycle" `Quick test_add_edge_rejects_cycle;
    Alcotest.test_case "of_graph rejects cycle" `Quick test_of_graph_rejects_cycle;
    Alcotest.test_case "descendants" `Quick test_descendants;
    QCheck_alcotest.to_alcotest qcheck_incremental_matches_batch;
  ]
