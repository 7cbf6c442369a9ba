open Repro_taskgraph
module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Moves = Repro_dse.Moves
module Annealer = Repro_anneal.Annealer
module Md = Repro_workloads.Motion_detection

let lam = Repro_anneal.Schedule.lam ~quality:0.003 ()

let small_budget ?(seed = 1) ?(iterations = 8_000) () =
  {
    (Explorer.sa_config ~seed iterations) with
    Explorer.anneal =
      Annealer.for_budget ~seed ~warmup:400 ~schedule:lam (iterations + 400);
  }

let test_improves_over_initial () =
  let app = Md.app () in
  let platform = Md.platform () in
  let result = Explorer.explore (small_budget ()) app platform in
  Alcotest.(check bool) "improved" true
    (result.Explorer.best_cost < result.Explorer.initial_cost);
  Alcotest.(check bool) "best eval consistent" true
    (abs_float
       (result.Explorer.best_eval.Repro_sched.Searchgraph.makespan
        -. result.Explorer.best_cost)
     < 1e-9)

let test_meets_deadline_on_paper_setup () =
  (* The paper's Fig. 2 setting: 2000 CLBs, 40 ms constraint.  With the
     default budget the explorer lands well below 40 ms. *)
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let result =
    Explorer.explore (small_budget ~seed:7 ~iterations:30_000 ()) app platform
  in
  Alcotest.(check bool) "constraint met" true
    (Explorer.meets_deadline app result.Explorer.best_eval);
  Alcotest.(check bool) "well below all-software" true
    (result.Explorer.best_cost < 40.0)

let test_deterministic_given_seed () =
  let app = Md.app () in
  let platform = Md.platform () in
  let run () = (Explorer.explore (small_budget ~seed:3 ()) app platform).Explorer.best_cost in
  Alcotest.(check (float 1e-12)) "same seed, same result" (run ()) (run ())

let test_seeds_differ () =
  let app = Md.app () in
  let platform = Md.platform () in
  let r1 = Explorer.explore (small_budget ~seed:1 ~iterations:2_000 ()) app platform in
  let r2 = Explorer.explore (small_budget ~seed:2 ~iterations:2_000 ()) app platform in
  (* Not a hard guarantee, but with 2k iterations the trajectories are
     effectively never identical. *)
  Alcotest.(check bool) "different initial points" true
    (r1.Explorer.initial_cost <> r2.Explorer.initial_cost
     || r1.Explorer.best_cost <> r2.Explorer.best_cost)

let test_trace_recorded () =
  let app = Md.app () in
  let platform = Md.platform () in
  let trace = Repro_dse.Trace.create ~every:1 () in
  let config = small_budget ~iterations:1_000 () in
  ignore (Explorer.explore ~trace config app platform);
  (* warmup 400 + cooling 1000 *)
  Alcotest.(check int) "every iteration traced" 1_400
    (Repro_dse.Trace.length trace);
  let entries = Repro_dse.Trace.entries trace in
  Alcotest.(check bool) "warmup first" true
    ((List.hd entries).Repro_dse.Trace.iteration = -400);
  Alcotest.(check bool) "contexts recorded" true
    (List.for_all (fun e -> e.Repro_dse.Trace.n_contexts >= 0) entries)

let test_explicit_initial_solution () =
  let app = Md.app () in
  let platform = Md.platform () in
  let initial = Solution.all_software app platform in
  let result =
    Explorer.explore ~initial (small_budget ~iterations:2_000 ()) app platform
  in
  Alcotest.(check (float 1e-9)) "initial cost is the all-sw time" 76.4
    result.Explorer.initial_cost

let test_cost_under_deadline () =
  let app = Md.app () in
  let cheap = Md.platform ~n_clb:400 () in
  let pricey = Md.platform ~n_clb:8000 () in
  let objective = Explorer.Cost_under_deadline { penalty_per_ms = 100.0 } in
  let fast = Solution.all_software app pricey in
  let slow = Solution.all_software app cheap in
  (* Same (infeasible-deadline) makespan, so the cheaper device wins. *)
  Alcotest.(check bool) "cost ranks platforms" true
    (Explorer.cost_of objective slow < Explorer.cost_of objective fast);
  (* The penalty shows up for deadline misses: 76.4 > 40. *)
  let base_cost = Repro_arch.Platform.total_cost cheap in
  Alcotest.(check bool) "penalty applied" true
    (Explorer.cost_of objective slow > base_cost)

let test_cost_under_deadline_requires_deadline () =
  let tasks =
    [ Task.make ~id:0 ~name:"t" ~functionality:"F" ~sw_time:1.0
        ~impls:[ { Task.clbs = 10; hw_time = 0.5 } ] ]
  in
  let app = App.make ~name:"nodeadline" ~tasks ~edges:[] () in
  let platform = Md.platform () in
  let s = Solution.all_software app platform in
  Alcotest.check_raises "needs deadline"
    (Invalid_argument "Explorer: Cost_under_deadline needs an app deadline")
    (fun () ->
      ignore
        (Explorer.cost_of
           (Explorer.Cost_under_deadline { penalty_per_ms = 1.0 })
           s))

let test_architecture_exploration_picks_cheaper_device () =
  let app = Md.app () in
  let catalogue =
    List.map (fun n -> Md.platform ~n_clb:n ()) [ 400; 1000; 2000; 5000; 10000 ]
  in
  let config =
    {
      Explorer.anneal =
        Annealer.for_budget ~seed:5 ~warmup:1_200 ~schedule:lam 21_200;
      moves = Moves.exploration catalogue;
      objective = Explorer.Cost_under_deadline { penalty_per_ms = 50.0 };
    }
  in
  let start = List.nth catalogue 4 (* most expensive *) in
  let result = Explorer.explore config app start in
  let chosen = Repro_arch.Platform.n_clb (Solution.platform result.Explorer.best) in
  Alcotest.(check bool) "moved off the 10000-CLB device" true (chosen < 10_000);
  Alcotest.(check bool) "still meets the deadline" true
    (Explorer.meets_deadline app result.Explorer.best_eval)

let test_explore_restarts () =
  let app = Md.app () in
  let platform = Md.platform () in
  let config = small_budget ~seed:8 ~iterations:2_000 () in
  let report =
    Explorer.explore_restarts ~restarts:4 (Explorer.annealer config) config
      app platform
  in
  let costs = List.map snd report.Explorer.restart_costs in
  Alcotest.(check int) "one cost per restart" 4 (List.length costs);
  Alcotest.(check int) "nothing degraded" 0 report.Explorer.degraded;
  Alcotest.(check (float 1e-12)) "best is the minimum"
    (List.fold_left Float.min infinity costs)
    (Option.get report.Explorer.best_result).Explorer.best_cost;
  Alcotest.check_raises "restarts < 1"
    (Invalid_argument "Explorer.explore_restarts: restarts < 1") (fun () ->
      ignore
        (Explorer.explore_restarts ~restarts:0 (Explorer.annealer config)
           config app platform))

let test_serialized_objective () =
  let app = Md.app () in
  let platform = Md.platform () in
  let config =
    { (small_budget ~seed:6 ~iterations:5_000 ()) with
      Explorer.objective = Explorer.Makespan_serialized }
  in
  let result = Explorer.explore config app platform in
  (* The optimizer's cost is the serialized makespan of the best
     solution, which dominates the edge-delay evaluation. *)
  let spec = Repro_dse.Solution.spec result.Explorer.best in
  (match Repro_sched.Searchgraph.evaluate_serialized spec with
   | Some serialized ->
     Alcotest.(check (float 1e-9)) "cost is the serialized makespan"
       serialized.Repro_sched.Searchgraph.makespan result.Explorer.best_cost
   | None -> Alcotest.fail "best solution must be feasible");
  Alcotest.(check bool) "edge-delay view does not exceed it" true
    (result.Explorer.best_eval.Repro_sched.Searchgraph.makespan
     <= result.Explorer.best_cost +. 1e-9)

let test_min_period_objective () =
  let app = Md.app () in
  let platform = Md.platform () in
  let explore objective =
    let config = { (small_budget ~seed:12 ~iterations:6_000 ()) with
                   Explorer.objective } in
    Explorer.explore config app platform
  in
  let by_period = explore Explorer.Min_period in
  let by_latency = explore Explorer.Makespan in
  let period_of result =
    (Repro_sched.Periodic.analyze
       (Repro_dse.Solution.spec result.Explorer.best))
      .Repro_sched.Periodic.min_initiation_interval
  in
  Alcotest.(check (float 1e-9)) "cost is the initiation interval"
    (period_of by_period) by_period.Explorer.best_cost;
  (* Optimizing for the period gives a period at least as good as the
     latency-optimized mapping's. *)
  Alcotest.(check bool) "period objective wins on period" true
    (period_of by_period <= period_of by_latency +. 1e-9)

let test_cost_performance_frontier () =
  let app = Md.app () in
  let catalogue = List.map (fun n -> Md.platform ~n_clb:n ()) [ 200; 800; 5000 ] in
  let frontier =
    (Explorer.cost_performance_frontier ~seed:4 ~iterations:4_000 app
       catalogue)
      .Explorer.frontier
  in
  Alcotest.(check bool) "non-empty" true (frontier <> []);
  (* Sorted by cost and Pareto-consistent: makespan strictly improves
     along the increasing-cost frontier. *)
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "cost increases" true
        (a.Explorer.cost < b.Explorer.cost);
      Alcotest.(check bool) "makespan decreases" true
        (b.Explorer.eval.Repro_sched.Searchgraph.makespan
         < a.Explorer.eval.Repro_sched.Searchgraph.makespan);
      check rest
    | [ _ ] | [] -> ()
  in
  check frontier

let test_supervised_restarts_degrade () =
  let module Fault = Repro_util.Fault in
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let config = small_budget ~seed:5 ~iterations:800 () in
  (* Restart 1 dies on every attempt; the campaign must still complete
     over the survivors and label the loss. *)
  Fault.arm_point ~site:Fault.Worker ~index:1;
  let report =
    Explorer.explore_restarts ~restarts:3 (Explorer.annealer config) config
      app platform
  in
  Alcotest.(check int) "one restart degraded" 1 report.Explorer.degraded;
  Alcotest.(check (list string)) "statuses" [ "done"; "failed"; "done" ]
    (Array.to_list report.Explorer.restart_outcomes
     |> List.map Repro_util.Parallel.outcome_name);
  Alcotest.(check (list int)) "survivor indices" [ 0; 2 ]
    (List.map fst report.Explorer.restart_costs);
  Fault.disarm ();
  (* The degraded winner is exactly the best of the surviving chains
     run on their own: supervision changes accounting, not results. *)
  let solo index =
    let seed = config.Explorer.anneal.Annealer.seed + (index * 65_537) in
    let config =
      { config with
        Explorer.anneal = { config.Explorer.anneal with Annealer.seed } }
    in
    (Explorer.explore config app platform).Explorer.best_cost
  in
  let expected = Float.min (solo 0) (solo 2) in
  match report.Explorer.best_result with
  | None -> Alcotest.fail "no survivor reported"
  | Some best ->
    Alcotest.(check (float 0.0)) "best over survivors" expected
      best.Explorer.best_cost

let test_supervised_restarts_all_lost () =
  let module Fault = Repro_util.Fault in
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  Fault.arm "worker:0, worker:1";
  let report =
    let config = small_budget ~seed:5 ~iterations:400 () in
    Explorer.explore_restarts ~restarts:2 (Explorer.annealer config) config
      app platform
  in
  Alcotest.(check bool) "no best" true (report.Explorer.best_result = None);
  Alcotest.(check int) "all degraded" 2 report.Explorer.degraded;
  Alcotest.(check (list string)) "the injected failure is kept"
    [ "Fault.Injected(injected fault at worker:0)";
      "Fault.Injected(injected fault at worker:1)" ]
    (Array.to_list report.Explorer.restart_outcomes
     |> List.map (function
          | Repro_util.Parallel.Failed { error; _ } -> error
          | outcome -> Repro_util.Parallel.outcome_name outcome))

let test_supervised_frontier_matches_a_priori_exclusion () =
  let module Fault = Repro_util.Fault in
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let app = Md.app () in
  let device n = Md.platform ~n_clb:n () in
  let catalogue = List.map device [ 200; 800; 5000 ] in
  (* Device index 1 (800 CLBs) is lost; each device explores with the
     same seed independently, so the degraded frontier must equal the
     frontier of the catalogue without that device. *)
  Fault.arm_point ~site:Fault.Worker ~index:1;
  let report =
    Explorer.cost_performance_frontier ~seed:4 ~iterations:2_000 app catalogue
  in
  Alcotest.(check int) "one device lost" 1 report.Explorer.devices_lost;
  Alcotest.(check (list string)) "statuses" [ "done"; "failed"; "done" ]
    (Array.to_list report.Explorer.device_outcomes
     |> List.map Repro_util.Parallel.outcome_name);
  Fault.disarm ();
  let excluded =
    (Explorer.cost_performance_frontier ~seed:4 ~iterations:2_000 app
       [ device 200; device 5000 ])
      .Explorer.frontier
  in
  let shape frontier =
    List.map
      (fun { Explorer.platform; eval; cost; meets } ->
        ( Repro_arch.Platform.n_clb platform,
          cost,
          eval.Repro_sched.Searchgraph.makespan,
          meets ))
      frontier
  in
  Alcotest.(check bool) "frontier = a-priori exclusion" true
    (shape report.Explorer.frontier = shape excluded)

let test_frontier_flags_devices_cut_short () =
  (* One domain and a stop that trips on its 50th poll: the first
     device's search is cut short at an iteration boundary and the
     others never start.  The report must name the cut-short device. *)
  let app = Md.app () in
  let catalogue = List.map (fun n -> Md.platform ~n_clb:n ()) [ 200; 800 ] in
  let polls = ref 0 in
  let should_stop () = incr polls; !polls > 50 in
  let report =
    Explorer.cost_performance_frontier ~seed:4 ~iterations:200_000 ~jobs:1
      ~should_stop app catalogue
  in
  Alcotest.(check (list string)) "statuses" [ "done"; "skipped" ]
    (Array.to_list report.Explorer.device_outcomes
     |> List.map Repro_util.Parallel.outcome_name);
  Alcotest.(check (list int)) "device 0 cut short" [ 0 ]
    report.Explorer.devices_cut_short;
  let clean =
    Explorer.cost_performance_frontier ~seed:4 ~iterations:2_000 ~jobs:1 app
      catalogue
  in
  Alcotest.(check (list int)) "no stop, nothing cut short" []
    clean.Explorer.devices_cut_short

let test_quality_config () =
  let c0 = Explorer.quality_config 0.0 in
  let c1 = Explorer.quality_config 1.0 in
  Alcotest.(check bool) "quality scales the budget" true
    (c1.Explorer.anneal.Annealer.iterations
     > 10 * c0.Explorer.anneal.Annealer.iterations);
  Alcotest.check_raises "range checked"
    (Invalid_argument "Explorer.quality_config: quality outside [0,1]")
    (fun () -> ignore (Explorer.quality_config 1.5))

let suite =
  [
    Alcotest.test_case "improves over initial" `Quick test_improves_over_initial;
    Alcotest.test_case "meets deadline on paper setup" `Slow
      test_meets_deadline_on_paper_setup;
    Alcotest.test_case "deterministic given seed" `Quick
      test_deterministic_given_seed;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "trace recorded" `Quick test_trace_recorded;
    Alcotest.test_case "explicit initial solution" `Quick
      test_explicit_initial_solution;
    Alcotest.test_case "cost under deadline" `Quick test_cost_under_deadline;
    Alcotest.test_case "cost objective requires deadline" `Quick
      test_cost_under_deadline_requires_deadline;
    Alcotest.test_case "architecture exploration" `Slow
      test_architecture_exploration_picks_cheaper_device;
    Alcotest.test_case "explore restarts" `Quick test_explore_restarts;
    Alcotest.test_case "serialized objective" `Quick test_serialized_objective;
    Alcotest.test_case "min-period objective" `Quick test_min_period_objective;
    Alcotest.test_case "cost/performance frontier" `Slow
      test_cost_performance_frontier;
    Alcotest.test_case "supervised restarts degrade over survivors" `Quick
      test_supervised_restarts_degrade;
    Alcotest.test_case "all restarts lost, errors kept" `Quick
      test_supervised_restarts_all_lost;
    Alcotest.test_case "degraded frontier = a-priori exclusion" `Quick
      test_supervised_frontier_matches_a_priori_exclusion;
    Alcotest.test_case "frontier flags devices the stop cut short" `Quick
      test_frontier_flags_devices_cut_short;
    Alcotest.test_case "quality config" `Quick test_quality_config;
  ]
