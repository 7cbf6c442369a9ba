module Graph = Repro_taskgraph.Graph
module Longest_path = Repro_sched.Longest_path
module Rng = Repro_util.Rng

let makespan lp = Array.fold_left Float.max 0.0 (Longest_path.finish_array lp)

let diamond_weights () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 2;
  Graph.add_edge g 1 3;
  Graph.add_edge g 2 3;
  let weights = [| 1.0; 5.0; 2.0; 1.0 |] in
  (g, weights)

let test_create_matches_graph_longest_path () =
  let g, weights = diamond_weights () in
  match
    Longest_path.create g
      ~node_weight:(fun v -> weights.(v))
      ~edge_weight:(fun _ _ -> 0.0)
  with
  | None -> Alcotest.fail "DAG"
  | Some lp ->
    Alcotest.(check (float 1e-9)) "makespan" 7.0 (makespan lp);
    Alcotest.(check (float 1e-9)) "finish 2" 3.0 (Longest_path.finish lp 2)

let test_create_rejects_cycle () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Alcotest.(check bool) "cyclic" true
    (Longest_path.create g ~node_weight:(fun _ -> 1.0)
       ~edge_weight:(fun _ _ -> 0.0)
     = None)

let test_refresh_propagates () =
  let g, weights = diamond_weights () in
  match
    Longest_path.create g
      ~node_weight:(fun v -> weights.(v))
      ~edge_weight:(fun _ _ -> 0.0)
  with
  | None -> Alcotest.fail "DAG"
  | Some lp ->
    weights.(1) <- 0.5;
    Longest_path.refresh lp [ 1 ];
    (* Critical path now goes through node 2: 1 + 2 + 1. *)
    Alcotest.(check (float 1e-9)) "makespan updated" 4.0
      (makespan lp);
    Alcotest.(check (float 1e-9)) "finish 1 updated" 1.5
      (Longest_path.finish lp 1)

let test_refresh_stops_early () =
  (* A long chain behind the changed node: changing the sink must not
     touch the chain. *)
  let n = 50 in
  let g = Graph.create n in
  for v = 0 to n - 2 do
    Graph.add_edge g v (v + 1)
  done;
  let weights = Array.make n 1.0 in
  match
    Longest_path.create g
      ~node_weight:(fun v -> weights.(v))
      ~edge_weight:(fun _ _ -> 0.0)
  with
  | None -> Alcotest.fail "DAG"
  | Some lp ->
    weights.(n - 1) <- 3.0;
    Longest_path.refresh lp [ n - 1 ];
    Alcotest.(check int) "only the sink re-evaluated" 1
      (Longest_path.touched_last_refresh lp);
    Alcotest.(check (float 1e-9)) "makespan" (float_of_int (n - 1) +. 3.0)
      (makespan lp);
    (* No-op refresh of an unchanged node stops immediately after it. *)
    Longest_path.refresh lp [ 0 ];
    Alcotest.(check int) "unchanged node does not cascade" 1
      (Longest_path.touched_last_refresh lp)

let qcheck_refresh_equals_recompute =
  QCheck.Test.make ~name:"refresh equals full recomputation" ~count:200
    QCheck.(triple small_int (int_range 2 12) (int_range 0 11))
    (fun (seed, n, dirty_raw) ->
      let rng = Rng.create (seed + 1) in
      let g = Graph.create n in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Rng.bernoulli rng 0.3 then Graph.add_edge g u v
        done
      done;
      let weights = Array.init n (fun _ -> Rng.float rng 10.0) in
      match
        Longest_path.create g
          ~node_weight:(fun v -> weights.(v))
          ~edge_weight:(fun _ _ -> 0.0)
      with
      | None -> false
      | Some lp ->
        let dirty = dirty_raw mod n in
        weights.(dirty) <- Rng.float rng 10.0;
        Longest_path.refresh lp [ dirty ];
        (* Reference: independent full solve. *)
        let finish =
          Graph.longest_path g
            ~node_weight:(fun v -> weights.(v))
            ~edge_weight:(fun _ _ -> 0.0)
        in
        Array.for_all
          (fun v -> abs_float (finish.(v) -. Longest_path.finish lp v) < 1e-9)
          (Array.init n Fun.id))

let qcheck_multi_dirty =
  QCheck.Test.make ~name:"refresh with several dirty nodes" ~count:100
    QCheck.(pair small_int (int_range 3 12))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 7) in
      let g = Graph.create n in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Rng.bernoulli rng 0.3 then Graph.add_edge g u v
        done
      done;
      let weights = Array.init n (fun _ -> Rng.float rng 10.0) in
      match
        Longest_path.create g
          ~node_weight:(fun v -> weights.(v))
          ~edge_weight:(fun _ _ -> 0.0)
      with
      | None -> false
      | Some lp ->
        let dirty =
          List.filter (fun _ -> Rng.bernoulli rng 0.4) (List.init n Fun.id)
        in
        List.iter (fun v -> weights.(v) <- Rng.float rng 10.0) dirty;
        Longest_path.refresh lp dirty;
        let finish =
          Graph.longest_path g
            ~node_weight:(fun v -> weights.(v))
            ~edge_weight:(fun _ _ -> 0.0)
        in
        Array.for_all
          (fun v -> abs_float (finish.(v) -. Longest_path.finish lp v) < 1e-9)
          (Array.init n Fun.id))

let qcheck_repeated_refresh_rounds =
  (* The annealing usage pattern: one longest-path state refreshed over
     and over as weights drift.  After every round the state must match
     an independent full solve, and the refresh must never claim to have
     re-evaluated more nodes than the graph holds. *)
  QCheck.Test.make ~name:"repeated refresh rounds track full recomputation"
    ~count:100
    QCheck.(triple small_int (int_range 3 14) (int_range 1 8))
    (fun (seed, n, rounds) ->
      let rng = Rng.create (seed + 13) in
      let g = Graph.create n in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Rng.bernoulli rng 0.25 then Graph.add_edge g u v
        done
      done;
      let weights = Array.init n (fun _ -> Rng.float rng 10.0) in
      match
        Longest_path.create g
          ~node_weight:(fun v -> weights.(v))
          ~edge_weight:(fun _ _ -> 0.0)
      with
      | None -> false
      | Some lp ->
        let ok = ref true in
        for _ = 1 to rounds do
          let dirty =
            List.filter (fun _ -> Rng.bernoulli rng 0.3) (List.init n Fun.id)
          in
          List.iter (fun v -> weights.(v) <- Rng.float rng 10.0) dirty;
          Longest_path.refresh lp dirty;
          if Longest_path.touched_last_refresh lp > Graph.size g then
            ok := false;
          let finish =
            Graph.longest_path g
              ~node_weight:(fun v -> weights.(v))
              ~edge_weight:(fun _ _ -> 0.0)
          in
          let reference_makespan =
            Array.fold_left Float.max 0.0 finish
          in
          if
            abs_float (reference_makespan -. makespan lp) >= 1e-9
            || not
                 (Array.for_all
                    (fun v ->
                      abs_float (finish.(v) -. Longest_path.finish lp v)
                      < 1e-9)
                    (Array.init n Fun.id))
          then ok := false
        done;
        !ok)

(* The cached-weight contract: [refresh] re-reads only the nodes it is
   given, so each edit below passes exactly its documented dirty node —
   the target of a re-weighted edge, the node of a changed weight — and
   a batch of edits passes their union.  Graphs of 1 to 200 nodes put
   topological positions on both sides of the bitmap's word
   boundaries (62 positions to a word).  After every refresh the
   completion times carry the bits of a fresh [create]. *)
let qcheck_cached_weights =
  QCheck.Test.make ~name:"cached weights track a fresh create bitwise"
    ~count:60
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let n = max 1 (min 200 n) in
      let rng = Rng.create (seed + 211) in
      let g = Graph.create n in
      for _ = 1 to 2 * n do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u < v then Graph.add_edge g u v
      done;
      let weights = Array.init n (fun _ -> Rng.float rng 10.0) in
      let edge_weights = Array.init (n * n) (fun _ -> Rng.float rng 3.0) in
      let node_weight v = weights.(v) in
      let edge_weight u v = edge_weights.((u * n) + v) in
      let bits = Array.map Int64.bits_of_float in
      match Longest_path.create g ~node_weight ~edge_weight with
      | None -> false
      | Some lp ->
        let edit () =
          let u = Rng.int rng n in
          match Graph.succs g u with
          | w :: _ as succs when Rng.bool rng ->
            let w = if Rng.bool rng then w else Rng.choice_list rng succs in
            edge_weights.((u * n) + w) <- Rng.float rng 3.0;
            [ w ]
          | _ :: _ | [] ->
            weights.(u) <- Rng.float rng 10.0;
            [ u ]
        in
        List.for_all
          (fun _ ->
            let dirty =
              List.concat (List.init (1 + Rng.int rng 4) (fun _ -> edit ()))
            in
            Longest_path.refresh lp dirty;
            Longest_path.touched_last_refresh lp <= n
            &&
            match Longest_path.create g ~node_weight ~edge_weight with
            | None -> false
            | Some fresh ->
              bits (Longest_path.finish_array fresh)
              = bits (Longest_path.finish_array lp))
          (List.init 100 Fun.id))

(* Minor-heap words allocated by [f]; the two readings themselves
   account for a handful. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The refresh cone reads cached weights in a plain loop with an
   unboxed accumulator: a one-node refresh whose cone covers hundreds
   of nodes allocates only for re-reading the one dirty node. *)
let test_refresh_allocation () =
  let n = 400 in
  let g = Graph.create n in
  for v = 1 to n - 1 do
    Graph.add_edge g (v - 1) v;
    if v >= 3 then Graph.add_edge g (v - 3) v
  done;
  let weights = Array.make n 1.0 in
  match
    Longest_path.create g
      ~node_weight:(fun v -> weights.(v))
      ~edge_weight:(fun u v -> float_of_int ((u + v) mod 3))
  with
  | None -> Alcotest.fail "DAG"
  | Some lp ->
    (* Warm-up: the first refresh pays for any one-time allocation. *)
    weights.(0) <- 2.0;
    Longest_path.refresh lp [ 0 ];
    weights.(0) <- 3.0;
    let words = minor_words (fun () -> Longest_path.refresh lp [ 0 ]) in
    let touched = Longest_path.touched_last_refresh lp in
    Alcotest.(check bool)
      (Printf.sprintf "cone covers the chain (%d nodes)" touched)
      true (touched >= 300);
    Alcotest.(check bool)
      (Printf.sprintf "one-node refresh allocates <= 64 words (%.0f)" words)
      true (words <= 64.0)

let suite =
  [
    Alcotest.test_case "create matches reference" `Quick
      test_create_matches_graph_longest_path;
    Alcotest.test_case "create rejects cycle" `Quick test_create_rejects_cycle;
    Alcotest.test_case "refresh propagates" `Quick test_refresh_propagates;
    Alcotest.test_case "refresh stops early" `Quick test_refresh_stops_early;
    QCheck_alcotest.to_alcotest qcheck_refresh_equals_recompute;
    QCheck_alcotest.to_alcotest qcheck_multi_dirty;
    QCheck_alcotest.to_alcotest qcheck_repeated_refresh_rounds;
    QCheck_alcotest.to_alcotest qcheck_cached_weights;
    Alcotest.test_case "refresh allocates nothing per node" `Quick
      test_refresh_allocation;
  ]
