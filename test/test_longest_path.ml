module Graph = Repro_taskgraph.Graph
module Longest_path = Repro_sched.Longest_path
module Rng = Repro_util.Rng

let makespan lp = Array.fold_left Float.max 0.0 (Longest_path.finish_array lp)

(* [create] reads its graph once, so each test keeps that graph as its
   own mirror of the state's: [insert] and [delete] apply an edit to the
   state and, when the state accepted it, to the mirror. *)
let insert lp g u v =
  let accepted = Longest_path.insert_edge lp u v in
  if accepted then Graph.add_edge g u v;
  accepted

let delete lp g u v =
  Longest_path.delete_edge lp u v;
  Graph.remove_edge g u v

(* The state's edge count, from its own stores. *)
let live_edges lp = List.length (Longest_path.edges lp)

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

let test_insert_edge_reorders () =
  (* Node 2 sits after the chain in the initial order; inserting
     2 -> 0 forces the Pearce-Kelly reordering path. *)
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  let weights = [| 1.0; 1.0; 5.0 |] in
  match
    Longest_path.create g
      ~node_weight:(fun v -> weights.(v))
      ~edge_weight:(fun _ _ -> 0.0)
  with
  | None -> Alcotest.fail "DAG"
  | Some lp ->
    Alcotest.(check bool) "insert accepted" true
      (insert lp g 2 0);
    Alcotest.(check bool) "edge present" true (Longest_path.has_edge lp 2 0);
    Longest_path.refresh lp [ 0 ];
    Alcotest.(check (float 1e-9)) "finish 1 via 2" 7.0
      (Longest_path.finish lp 1);
    (* Re-inserting an existing edge is a no-op success. *)
    Alcotest.(check bool) "idempotent" true (insert lp g 2 0)

let test_insert_edge_rejects_cycle () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  let weights = [| 1.0; 2.0; 3.0 |] in
  match
    Longest_path.create g
      ~node_weight:(fun v -> weights.(v))
      ~edge_weight:(fun _ _ -> 0.0)
  with
  | None -> Alcotest.fail "DAG"
  | Some lp ->
    let edges_before = Graph.edge_count g in
    Alcotest.(check bool) "cycle rejected" false
      (insert lp g 2 0);
    Alcotest.(check bool) "self-loop rejected" false
      (insert lp g 1 1);
    Alcotest.(check int) "graph untouched" edges_before (live_edges lp);
    (* The state must still be usable: delete the middle edge and
       check against a fresh reference solve. *)
    delete lp g 0 1;
    Longest_path.refresh lp [ 1 ];
    let reference =
      Graph.longest_path g
        ~node_weight:(fun v -> weights.(v))
        ~edge_weight:(fun _ _ -> 0.0)
    in
    Array.iteri
      (fun v r ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "finish %d" v)
          r (Longest_path.finish lp v))
      reference

let qcheck_dynamic_edges =
  (* The structural-move usage pattern: edges come and go and weights
     drift on one live state.  After every operation the state must
     match an independent full solve, and a rejected (cyclic) insertion
     must leave the graph untouched. *)
  QCheck.Test.make ~name:"dynamic edge edits track full recomputation"
    ~count:200
    QCheck.(triple small_int (int_range 3 12) (int_range 1 40))
    (fun (seed, n, ops) ->
      let rng = Rng.create (seed + 29) in
      let g = Graph.create n in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Rng.bernoulli rng 0.2 then Graph.add_edge g u v
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
        for _ = 1 to ops do
          let u = Rng.int rng n and v = Rng.int rng n in
          let dirty =
            if Rng.bernoulli rng 0.5 then
              if u <> v && Graph.has_edge g u v then begin
                delete lp g u v;
                [ v ]
              end
              else if insert lp g u v then [ v ]
              else begin
                (* Rejected: the edge must not have been added. *)
                if Longest_path.has_edge lp u v then ok := false;
                []
              end
            else begin
              weights.(u) <- Rng.float rng 10.0;
              [ u ]
            end
          in
          Longest_path.refresh lp dirty;
          let reference =
            Graph.longest_path g
              ~node_weight:(fun v -> weights.(v))
              ~edge_weight:(fun _ _ -> 0.0)
          in
          if
            not
              (Array.for_all
                 (fun w ->
                   abs_float (reference.(w) -. Longest_path.finish lp w) < 1e-9)
                 (Array.init n Fun.id))
          then ok := false
        done;
        !ok)

(* Reachability in the current graph, by an independent search: the
   reference for which insertions must be rejected. *)
let reaches g src dst =
  let seen = Array.make (Graph.size g) false in
  let rec visit w =
    w = dst
    || (not seen.(w))
       && begin
         seen.(w) <- true;
         List.exists visit (Graph.succs g w)
       end
  in
  visit src

let qcheck_large_dags =
  (* Benchmark-scale graphs, where the Pearce–Kelly searches cover a
     small part of the nodes: a search mark left set by one insertion
     would corrupt a later answer or order.  Half of the insertions
     point backwards in node order, so many of them close a cycle. *)
  QCheck.Test.make ~name:"edge edits on large DAGs match a fresh create"
    ~count:12
    QCheck.(pair small_int (int_range 200 600))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 71) in
      let g = Graph.create n in
      for _ = 1 to 3 * n do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u < v then Graph.add_edge g u v
      done;
      let weights = Array.init n (fun _ -> Rng.float rng 10.0) in
      let node_weight v = weights.(v) in
      let edge_weight u v = float_of_int (((u * 7) + (v * 13)) mod 5) in
      match Longest_path.create g ~node_weight ~edge_weight with
      | None -> false
      | Some lp ->
        let rejected = ref 0 in
        (* The first divergence ends the case: a wrongly accepted edge
           closes a cycle, and refreshing a cyclic graph never ends. *)
        let check ok = if not ok then raise Exit in
        let check_fresh () =
          match
            Longest_path.create (Graph.copy g) ~node_weight ~edge_weight
          with
          | None -> check false
          | Some fresh ->
            for w = 0 to n - 1 do
              check (Longest_path.finish fresh w = Longest_path.finish lp w)
            done
        in
        let insert u v =
          let expected =
            Graph.has_edge g u v || (u <> v && not (reaches g v u))
          in
          let before = Array.copy (Longest_path.finish_array lp) in
          let edges = Graph.edge_count g in
          let accepted = insert lp g u v in
          check (accepted = expected);
          if accepted then Longest_path.refresh lp [ v ]
          else begin
            incr rejected;
            check
              (live_edges lp = edges
               && Longest_path.finish_array lp = before)
          end;
          check_fresh ()
        in
        try
          for _ = 1 to 200 do
            let u = Rng.int rng n and v = Rng.int rng n in
            if Rng.bernoulli rng 0.3 && Graph.succs g u <> [] then begin
              let w = Rng.choice_list rng (Graph.succs g u) in
              delete lp g u w;
              Longest_path.refresh lp [ w ];
              check_fresh ()
            end
            else insert u v
          done;
          (* The random draws may all miss a cycle: close one for sure
             by inserting the reverse of an existing edge. *)
          (match
             List.find_opt (fun u -> Graph.succs g u <> []) (List.init n Fun.id)
           with
           | Some u -> insert (List.hd (Graph.succs g u)) u
           | None -> ());
          !rejected > 0
        with Exit -> false)

(* The cached-weight contract: [refresh] re-reads only the nodes it is
   given, so each edit below passes exactly its documented dirty node —
   the target of an inserted, deleted or re-weighted edge, the node of a
   changed weight — and a batch of edits passes their union.  A hub
   sink gains 50+ in-edges, far past the slack its in-edge slice was
   created with, so the slice is relocated (and the store compacted)
   several times, then loses them again.  After every refresh the
   completion times must carry the bits of a fresh [create] over a copy
   of the graph. *)
let qcheck_cached_weights =
  QCheck.Test.make ~name:"cached weights track a fresh create bitwise"
    ~count:25
    QCheck.(pair small_int (int_range 60 120))
    (fun (seed, n) ->
      (* The shrinker may step outside the range. *)
      let n = max 60 n in
      let rng = Rng.create (seed + 101) in
      let hub = n - 1 in
      let g = Graph.create n in
      for u = 0 to n - 3 do
        for v = u + 1 to n - 2 do
          if Rng.bernoulli rng 0.05 then Graph.add_edge g u v
        done
      done;
      Graph.add_edge g 0 hub;
      let weights = Array.init n (fun _ -> Rng.float rng 10.0) in
      let edge_weights = Array.init (n * n) (fun _ -> Rng.float rng 3.0) in
      let node_weight v = weights.(v) in
      let edge_weight u v = edge_weights.((u * n) + v) in
      match Longest_path.create g ~node_weight ~edge_weight with
      | None -> false
      | Some lp ->
        let same () =
          match
            Longest_path.create (Graph.copy g) ~node_weight ~edge_weight
          with
          | None -> false
          | Some fresh ->
            let a = Longest_path.finish_array lp
            and b = Longest_path.finish_array fresh in
            Array.for_all2
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              a b
            && Int64.bits_of_float (makespan lp)
               = Int64.bits_of_float (makespan fresh)
        in
        (* Only [grow] and [shrink] edit the hub's in-edges. *)
        let random_edit () =
          let u = Rng.int rng (n - 1) and v = Rng.int rng (n - 1) in
          match Rng.int rng 4 with
          | 0 ->
            if u <> v && Graph.has_edge g u v then begin
              delete lp g u v;
              [ v ]
            end
            else if insert lp g u v then [ v ]
            else []
          | 1 -> (
            match Graph.succs g u with
            | [] -> []
            | succs ->
              let w = Rng.choice_list rng succs in
              edge_weights.((u * n) + w) <- Rng.float rng 3.0;
              [ w ])
          | _ ->
            let v = Rng.int rng n in
            weights.(v) <- Rng.float rng 10.0;
            [ v ]
        in
        let hub_in = ref [] in
        let grow () =
          let u = Rng.int rng (n - 1) in
          if Graph.has_edge g u hub then []
          else begin
            (* The hub is a sink: an edge into it never closes a cycle. *)
            if not (insert lp g u hub) then raise Exit;
            hub_in := u :: !hub_in;
            [ hub ]
          end
        in
        let shrink () =
          match !hub_in with
          | [] -> []
          | u :: rest ->
            hub_in := rest;
            delete lp g u hub;
            [ hub ]
        in
        let round edit =
          let dirty =
            List.concat (List.init (1 + Rng.int rng 4) (fun _ -> edit ()))
          in
          Longest_path.refresh lp dirty;
          if Longest_path.touched_last_refresh lp > n || not (same ()) then
            raise Exit
        in
        try
          while List.length !hub_in < 55 do
            round (fun () -> if Rng.bernoulli rng 0.5 then grow () else random_edit ())
          done;
          let peak = Graph.in_degree g hub in
          while !hub_in <> [] do
            round (fun () -> if Rng.bernoulli rng 0.5 then shrink () else random_edit ())
          done;
          peak > 50 && Graph.in_degree g hub = 1
        with Exit -> false)

(* The worklist and the reorder's sort are sweeps of a bitmap with one
   bit per topological position, 62 to a word.  Graphs of 1 to 200
   nodes put positions on both sides of the word boundaries, and half
   of the insertions join a node in the upper half of the node order to
   one in the lower half, so their Pearce–Kelly range [pos v, pos u]
   spans several words on the larger graphs.  After every refresh the
   completion times carry the bits of a fresh [create]; a rejected
   insertion changes no completion time, nor does a refresh after it. *)
let qcheck_position_bitmap =
  QCheck.Test.make ~name:"bitmap worklist and reorder match a fresh create"
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
        let check ok = if not ok then raise Exit in
        let check_fresh () =
          match Longest_path.create (Graph.copy g) ~node_weight ~edge_weight with
          | None -> check false
          | Some fresh ->
            check
              (bits (Longest_path.finish_array fresh)
               = bits (Longest_path.finish_array lp))
        in
        (* A rejected insertion still names [v], so the round's
           refresh re-reads it and must change nothing. *)
        let rejected = ref false in
        let insert u v =
          rejected := not (insert lp g u v);
          [ v ]
        in
        let edit () =
          let u = Rng.int rng n and v = Rng.int rng n in
          match Rng.int rng 5 with
          | 0 -> insert u v
          | 1 ->
            (* Upper half into lower half of the node order. *)
            let hi = max u v and lo = min u v in
            insert (hi + ((n - hi) / 2)) (lo / 2)
          | 2 -> (
            match Graph.succs g u with
            | [] -> []
            | succs ->
              let w = Rng.choice_list rng succs in
              delete lp g u w;
              [ w ])
          | 3 -> (
            match Graph.succs g u with
            | [] -> []
            | succs ->
              let w = Rng.choice_list rng succs in
              edge_weights.((u * n) + w) <- Rng.float rng 3.0;
              [ w ])
          | _ ->
            weights.(v) <- Rng.float rng 10.0;
            [ v ]
        in
        try
          for _ = 1 to 200 do
            let before = bits (Longest_path.finish_array lp) in
            rejected := false;
            let dirty = edit () in
            if !rejected then
              check (bits (Longest_path.finish_array lp) = before);
            Longest_path.refresh lp dirty;
            if !rejected then
              check (bits (Longest_path.finish_array lp) = before);
            check (Longest_path.touched_last_refresh lp <= n);
            check_fresh ()
          done;
          true
        with Exit -> false)

(* The state's two slice stores against a mirror graph.  Node 0 stays
   a source and node n-1 a sink, hubs that start without edges: half
   of the inserts go out of the one or into the other and are always
   accepted, so the hubs' slices outgrow the two free cells [create]
   leaves per slice and are relocated, in both stores; [create] fills
   its stores to the end, so the first relocation in a store compacts
   it.  The other inserts join random inner nodes, half of them
   backwards in node order, taking Pearce–Kelly's reorder or being
   rejected as cycles.  After every step [has_edge] answers as the
   mirror does for every pair, and [edges] — which fails when the in-
   and out-slices disagree — lists the mirror's edges. *)
let qcheck_slices_track_mirror =
  QCheck.Test.make ~name:"has_edge and both slice stores track a mirror"
    ~count:40
    QCheck.(pair small_int (int_range 8 40))
    (fun (seed, n) ->
      let n = max 8 (min 40 n) in
      let rng = Rng.create (seed + 307) in
      let inner () = 1 + Rng.int rng (n - 2) in
      let g = Graph.create n in
      for _ = 1 to n do
        let u = inner () and v = inner () in
        if u < v then Graph.add_edge g u v
      done;
      match
        Longest_path.create g ~node_weight:(fun _ -> 1.0)
          ~edge_weight:(fun _ _ -> 0.0)
      with
      | None -> false
      | Some lp ->
        let peak_out = ref 0 and peak_in = ref 0 in
        let agrees () =
          let pairs = ref true in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              if Longest_path.has_edge lp u v <> Graph.has_edge g u v then
                pairs := false
            done
          done;
          !pairs
          && Longest_path.edges lp = List.sort compare (Graph.edges g)
        in
        let accepted ok = if not ok then raise Exit in
        let step () =
          let u = inner () and v = inner () in
          (match Rng.int rng 6 with
           | 0 -> accepted (insert lp g 0 (1 + Rng.int rng (n - 1)))
           | 1 -> accepted (insert lp g (Rng.int rng (n - 1)) (n - 1))
           | 2 -> ignore (insert lp g u v : bool)
           | 3 -> ignore (insert lp g (max u v) (min u v) : bool)
           | _ -> (
             let u = Rng.int rng n in
             match Graph.succs g u with
             | [] -> ()
             | succs -> delete lp g u (Rng.choice_list rng succs)));
          peak_out := max !peak_out (Graph.out_degree g 0);
          peak_in := max !peak_in (Graph.in_degree g (n - 1));
          agrees ()
        in
        try
          let ok = ref (agrees ()) in
          for _ = 1 to 300 do
            if !ok then ok := step ()
          done;
          !ok && !peak_out > 2 && !peak_in > 2
        with Exit -> false)

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
    Alcotest.test_case "insert_edge reorders" `Quick test_insert_edge_reorders;
    Alcotest.test_case "insert_edge rejects cycle" `Quick
      test_insert_edge_rejects_cycle;
    QCheck_alcotest.to_alcotest qcheck_refresh_equals_recompute;
    QCheck_alcotest.to_alcotest qcheck_multi_dirty;
    QCheck_alcotest.to_alcotest qcheck_repeated_refresh_rounds;
    QCheck_alcotest.to_alcotest qcheck_dynamic_edges;
    QCheck_alcotest.to_alcotest qcheck_large_dags;
    QCheck_alcotest.to_alcotest qcheck_cached_weights;
    QCheck_alcotest.to_alcotest qcheck_position_bitmap;
    QCheck_alcotest.to_alcotest qcheck_slices_track_mirror;
    Alcotest.test_case "refresh allocates nothing per node" `Quick
      test_refresh_allocation;
  ]
