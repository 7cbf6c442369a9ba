open Repro_taskgraph

let impl clbs hw_time = { Task.clbs; hw_time }

let simple_task ?(impls = [ impl 10 0.5 ]) id =
  Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F"
    ~sw_time:1.0 ~impls

let test_task_validation () =
  Alcotest.check_raises "negative id" (Invalid_argument "Task.make: negative id")
    (fun () -> ignore (simple_task (-1)));
  Alcotest.check_raises "no impls"
    (Invalid_argument "Task.make: no hardware implementation") (fun () ->
      ignore (simple_task ~impls:[] 0));
  Alcotest.check_raises "bad sw time" (Invalid_argument "Task.make: sw_time <= 0")
    (fun () ->
      ignore
        (Task.make ~id:0 ~name:"x" ~functionality:"F" ~sw_time:0.0
           ~impls:[ impl 10 0.5 ]))

(* NaN passes a [<= 0.0] test, and an infinite time is no time: both
   times reject all three non-finite values. *)
let test_task_non_finite_times () =
  let rejected f =
    match f () with
    | exception Invalid_argument _ -> true
    | (_ : Task.t) -> false
  in
  List.iter
    (fun x ->
      let label = Printf.sprintf "%h" x in
      Alcotest.(check bool) ("sw_time " ^ label) true
        (rejected (fun () ->
             Task.make ~id:0 ~name:"x" ~functionality:"F" ~sw_time:x
               ~impls:[ impl 10 0.5 ]));
      Alcotest.(check bool) ("hw_time " ^ label) true
        (rejected (fun () -> simple_task ~impls:[ impl 10 x ] 0)))
    [ nan; infinity; neg_infinity ]

(* The same hole in the application's numbers: a NaN data amount gives
   a NaN transfer time and so a NaN upward rank, and a NaN deadline a
   NaN multi-mode cost. *)
let test_app_non_finite_numbers () =
  let rejected ?deadline ?(kbytes = 1.0) expected =
    Alcotest.check_raises expected (Invalid_argument expected) (fun () ->
        ignore
          (App.make ~name:"bad" ?deadline
             ~tasks:[ simple_task 0; simple_task 1 ]
             ~edges:[ { App.src = 0; dst = 1; kbytes } ] ()))
  in
  rejected ~deadline:nan "App.make: deadline not finite";
  rejected ~deadline:infinity "App.make: deadline not finite";
  rejected ~deadline:neg_infinity "App.make: non-positive deadline";
  rejected ~kbytes:nan "App.make: data amount not finite";
  rejected ~kbytes:infinity "App.make: data amount not finite";
  rejected ~kbytes:neg_infinity "App.make: negative data amount"

let test_impl_sorted () =
  let t =
    Task.make ~id:0 ~name:"x" ~functionality:"F" ~sw_time:4.0
      ~impls:[ impl 40 0.5; impl 10 2.0; impl 20 1.0 ]
  in
  Alcotest.(check int) "count" 3 (Task.impl_count t);
  Alcotest.(check int) "smallest first" 10 (Task.impl t 0).Task.clbs;
  Alcotest.(check int) "largest last" 40 (Task.impl t 2).Task.clbs;
  Alcotest.(check int) "smallest_impl" 10 (Task.smallest_impl t).Task.clbs;
  Alcotest.(check (float 1e-9)) "fastest_impl" 0.5
    (Task.fastest_impl t).Task.hw_time;
  Alcotest.(check (float 1e-9)) "best speedup" 8.0 (Task.best_speedup t)

let test_pareto () =
  let dominated = [ impl 10 1.0; impl 20 1.0; impl 30 0.5 ] in
  Alcotest.(check bool) "detects dominated" false (Task.is_pareto dominated);
  let front = Task.pareto_filter dominated in
  Alcotest.(check int) "front size" 2 (List.length front);
  Alcotest.(check bool) "front is pareto" true (Task.is_pareto front);
  let already = [ impl 10 2.0; impl 20 1.0 ] in
  Alcotest.(check bool) "keeps pareto set" true
    (Task.pareto_filter already = already)

let edge src dst kbytes = { App.src; dst; kbytes }

let small_app () =
  App.make ~name:"test" ~deadline:10.0
    ~tasks:[ simple_task 0; simple_task 1; simple_task 2 ]
    ~edges:[ edge 0 1 5.0; edge 1 2 5.0 ]
    ()

let test_app_construction () =
  let app = small_app () in
  Alcotest.(check int) "size" 3 (App.size app);
  Alcotest.(check (float 1e-9)) "edge data" 5.0 (App.kbytes app 0 1);
  Alcotest.(check (float 1e-9)) "missing edge" 0.0 (App.kbytes app 0 2);
  Alcotest.(check int) "edges listed" 2 (List.length (App.edges app));
  Alcotest.(check bool) "validates" true (App.validate app = Ok ())

let test_app_rejects_cycle () =
  Alcotest.check_raises "cycle"
    (Invalid_argument "App.make: precedence graph has a cycle") (fun () ->
      ignore
        (App.make ~name:"bad"
           ~tasks:[ simple_task 0; simple_task 1 ]
           ~edges:[ edge 0 1 1.0; edge 1 0 1.0 ]
           ()))

let test_app_rejects_bad_ids () =
  Alcotest.check_raises "id mismatch"
    (Invalid_argument "App.make: task at position 0 has id 5") (fun () ->
      ignore (App.make ~name:"bad" ~tasks:[ simple_task 5 ] ~edges:[] ()))

let test_app_rejects_duplicate_edge () =
  Alcotest.check_raises "duplicate" (Invalid_argument "App.make: duplicate edge")
    (fun () ->
      ignore
        (App.make ~name:"bad"
           ~tasks:[ simple_task 0; simple_task 1 ]
           ~edges:[ edge 0 1 1.0; edge 0 1 2.0 ]
           ()))

let test_app_rejects_bad_deadline () =
  Alcotest.check_raises "deadline"
    (Invalid_argument "App.make: non-positive deadline") (fun () ->
      ignore (App.make ~name:"bad" ~deadline:0.0 ~tasks:[ simple_task 0 ]
                ~edges:[] ()))

let test_metrics () =
  let app = small_app () in
  Alcotest.(check (float 1e-9)) "total sw" 3.0 (App.total_sw_time app);
  Alcotest.(check (float 1e-9)) "sw critical path (chain)" 3.0
    (App.sw_critical_path app);
  Alcotest.(check (float 1e-9)) "hw critical path" 1.5 (App.hw_critical_path app);
  Alcotest.(check (float 1e-9)) "parallelism of chain" 1.0 (App.parallelism app)

let test_parallel_metrics () =
  (* Two independent tasks: parallelism 2. *)
  let app =
    App.make ~name:"par" ~tasks:[ simple_task 0; simple_task 1 ] ~edges:[] ()
  in
  Alcotest.(check (float 1e-9)) "critical path" 1.0 (App.sw_critical_path app);
  Alcotest.(check (float 1e-9)) "parallelism" 2.0 (App.parallelism app)

let test_topological_order () =
  let app = small_app () in
  Alcotest.(check (array int)) "chain order" [| 0; 1; 2 |]
    (App.topological_order app)

(* --- the application index ---

   [App.make] derives the edge array, the per-task in-edge and
   incidence lists and the topological order once.  The reference
   definitions below are the direct ones: [Graph.edges] order with the
   data of the edge list handed to [App.make], a hashed (src, dst)
   lookup, Kahn's order from the graph. *)

(* The same tasks and edge set, the edges handed over in a shuffled
   order and each with its own data amount, so a misplaced edge shows
   up as wrong data. *)
let remade rng app =
  let input = Array.of_list (App.edges app) in
  Repro_util.Rng.shuffle_in_place rng input;
  let input =
    List.mapi
      (fun i (e : App.edge) ->
        { e with App.kbytes = 0.5 *. float_of_int (i + 1) })
      (Array.to_list input)
  in
  ( App.make ~name:app.App.name ~tasks:(Array.to_list app.App.tasks)
      ~edges:input (),
    input )

let bits = Int64.bits_of_float

let check_index label app input =
  let n = App.size app in
  let check_true what = Alcotest.(check bool) (label ^ ": " ^ what) true in
  let data = Hashtbl.create 64 in
  List.iter
    (fun { App.src; dst; kbytes } -> Hashtbl.replace data (src, dst) kbytes)
    input;
  let reference =
    List.map
      (fun (src, dst) ->
        { App.src; dst; kbytes = Hashtbl.find data (src, dst) })
      (Graph.edges app.App.graph)
  in
  check_true "edges in Graph.edges order" (App.edges app = reference);
  Alcotest.(check int) (label ^ ": edge count") (List.length input)
    (App.edge_count app);
  List.iteri (fun i e -> check_true "edge i" (App.edge app i = e)) reference;
  (* Every ordered pair, one step out of range on each side included,
     then the extremes: the data or 0.0, never an exception. *)
  (* Every ordered pair, one step out of range on each side included,
     then the extremes: the data or 0.0, never an exception; the edge
     weight of edge [i] is [i + 1] here, 0 off the edges. *)
  let position_of = Hashtbl.create 64 in
  List.iteri
    (fun i { App.src; dst; kbytes = _ } ->
      Hashtbl.replace position_of (src, dst) i)
    reference;
  let weight = App.edge_weight app (fun i -> float_of_int (i + 1)) in
  let check_pair u v =
    let expected = Option.value ~default:0.0 (Hashtbl.find_opt data (u, v)) in
    if bits (App.kbytes app u v) <> bits expected then
      Alcotest.failf "%s: kbytes %d %d = %g, expected %g" label u v
        (App.kbytes app u v) expected;
    let expected =
      match Hashtbl.find_opt position_of (u, v) with
      | Some i -> float_of_int (i + 1)
      | None -> 0.0
    in
    if weight u v <> expected then
      Alcotest.failf "%s: edge_weight %d %d = %g, expected %g" label u v
        (weight u v) expected
  in
  for u = -1 to n do
    for v = -1 to n do
      check_pair u v
    done
  done;
  List.iter
    (fun (u, v) -> check_pair u v)
    [ (min_int, 0); (0, min_int); (max_int, 0); (0, max_int) ];
  for v = 0 to n - 1 do
    let around = ref [] in
    List.iteri
      (fun i { App.src; dst; kbytes = _ } ->
        if src = v || dst = v then around := i :: !around)
      reference;
    let incident = ref [] in
    App.iter_incident app v (fun i -> incident := i :: !incident);
    Alcotest.(check (list int)) (label ^ ": incident") !around !incident
  done;
  let order = App.topological_order app in
  Alcotest.(check (option (array int))) (label ^ ": Kahn's order")
    (Graph.topological_order app.App.graph) (Some order);
  let position = Array.make n (-1) in
  Array.iteri (fun i v -> position.(v) <- i) order;
  check_true "a permutation" (Array.for_all (fun p -> p >= 0) position);
  List.iter
    (fun { App.src; dst; kbytes = _ } ->
      if position.(src) >= position.(dst) then
        Alcotest.failf "%s: edge %d -> %d against the order" label src dst)
    reference;
  let kept = Array.copy order in
  Array.fill order 0 n 0;
  Alcotest.(check (array int)) (label ^ ": copies are private") kept
    (App.topological_order app);
  check_true "validates" (App.validate app = Ok ())

let test_index_layered () =
  List.iter
    (fun (layers, width, edge_probability, seed) ->
      let app =
        Generators.layered (Repro_util.Rng.create seed)
          Generators.default_impl_model ~layers ~width ~edge_probability
          ~mean_sw_time:2.0 ~mean_kbytes:8.0
      in
      let app, input = remade (Repro_util.Rng.create (seed + 100)) app in
      check_index (Printf.sprintf "layered, %d tasks" (App.size app)) app
        input)
    [
      (3, 4, 0.3, 1);
      (5, 8, 0.2, 2);
      (8, 31, 0.12, 3);
      (8, 125, 0.03, 4);
      (8, 250, 0.015, 5);
    ]

let test_index_fixtures () =
  let good f =
    String.starts_with ~prefix:"good_" f && Filename.check_suffix f ".tg"
  in
  List.iter
    (fun file ->
      match App_io.load (Filename.concat "fixtures" file) with
      | Error msg -> Alcotest.fail msg
      | Ok app ->
        let app, input = remade (Repro_util.Rng.create 7) app in
        check_index file app input)
    (List.filter good (Array.to_list (Sys.readdir "fixtures")))

(* The diagnostics of [App.make], one per construction rule; the first
   offending edge in list order names the problem. *)
let test_make_diagnostics () =
  List.iter
    (fun (label, msg, edges) ->
      Alcotest.check_raises label (Invalid_argument msg) (fun () ->
          ignore
            (App.make ~name:"bad"
               ~tasks:[ simple_task 0; simple_task 1; simple_task 2 ]
               ~edges ())))
    [
      ( "duplicate", "App.make: duplicate edge",
        [ edge 0 1 1.0; edge 1 2 1.0; edge 0 1 1.0 ] );
      ( "self-loop", "Graph.add_edge: self-loop",
        [ edge 0 1 1.0; edge 2 2 1.0 ] );
      ("endpoint", "App.make: edge endpoint out of range", [ edge 0 3 1.0 ]);
      ( "negative endpoint", "App.make: edge endpoint out of range",
        [ edge (-1) 0 1.0 ] );
      ("negative data", "App.make: negative data amount", [ edge 0 1 (-0.5) ]);
      ( "cycle", "App.make: precedence graph has a cycle",
        [ edge 0 1 1.0; edge 1 2 1.0; edge 2 0 1.0 ] );
      ( "negative data before a duplicate", "App.make: negative data amount",
        [ edge 0 1 1.0; edge 1 2 (-1.0); edge 0 1 1.0 ] );
    ]

let suite =
  [
    Alcotest.test_case "task validation" `Quick test_task_validation;
    Alcotest.test_case "task rejects non-finite times" `Quick
      test_task_non_finite_times;
    Alcotest.test_case "impl sorting/access" `Quick test_impl_sorted;
    Alcotest.test_case "pareto" `Quick test_pareto;
    Alcotest.test_case "app construction" `Quick test_app_construction;
    Alcotest.test_case "app rejects cycle" `Quick test_app_rejects_cycle;
    Alcotest.test_case "app rejects bad ids" `Quick test_app_rejects_bad_ids;
    Alcotest.test_case "app rejects duplicate edges" `Quick
      test_app_rejects_duplicate_edge;
    Alcotest.test_case "app rejects bad deadline" `Quick
      test_app_rejects_bad_deadline;
    Alcotest.test_case "app metrics" `Quick test_metrics;
    Alcotest.test_case "parallel metrics" `Quick test_parallel_metrics;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "index of layered apps" `Quick test_index_layered;
    Alcotest.test_case "index of the good fixtures" `Quick test_index_fixtures;
    Alcotest.test_case "make diagnostics" `Quick test_make_diagnostics;
    Alcotest.test_case "app rejects non-finite numbers" `Quick
      test_app_non_finite_numbers;
  ]
