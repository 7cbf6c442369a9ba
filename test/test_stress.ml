(* Repository-scale robustness: large random applications explored end
   to end, with the independent validator as oracle. *)

open Repro_taskgraph
open Repro_arch
module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Annealer = Repro_anneal.Annealer
module Rng = Repro_util.Rng

let lam = Repro_anneal.Schedule.lam ~quality:0.003 ()

let big_app () =
  let rng = Rng.create 2024 in
  Generators.layered rng Generators.default_impl_model ~layers:20 ~width:8
    ~edge_probability:0.25 ~mean_sw_time:2.0 ~mean_kbytes:10.0

let platform app =
  ignore app;
  Platform.make ~name:"big"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb:1500 ~reconfig_ms_per_clb:0.01 "rc")
    ~bus:Platform.default_bus ()

let test_large_graph_exploration () =
  let app = big_app () in
  Alcotest.(check bool) "substantial instance" true (App.size app >= 60);
  let config =
    {
      Explorer.anneal =
        Annealer.for_budget ~seed:77 ~warmup:1_200 ~schedule:lam 16_200;
      moves = Repro_dse.Moves.fixed_architecture;
      objective = Explorer.Makespan;
    }
  in
  let result = Explorer.explore config app (platform app) in
  let all_sw = App.total_sw_time app in
  Alcotest.(check bool)
    (Printf.sprintf "improved >= 25%% over all-software (%.1f -> %.1f)" all_sw
       result.Explorer.best_cost)
    true
    (result.Explorer.best_cost < 0.75 *. all_sw);
  (* The winning schedule passes the independent checker. *)
  match Repro_sched.Validate.evaluated (Solution.spec result.Explorer.best) with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "invalid: %s" (String.concat "; " msgs)

let test_large_graph_invariants_after_walk () =
  let app = big_app () in
  let rng = Rng.create 3 in
  let s = Solution.random (Rng.split rng) app (platform app) in
  for _ = 1 to 3_000 do
    ignore (Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s)
  done;
  (match Solution.check_invariants s with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "invariants: %s" msg);
  Alcotest.(check bool) "feasible" true (Solution.evaluate s <> None)

let test_wide_app_many_contexts () =
  (* A tiny device forces deep temporal partitioning on a big graph. *)
  let app = big_app () in
  let tiny =
    Platform.make ~name:"tiny"
      ~processor:(Resource.processor "cpu")
      ~rc:(Resource.reconfigurable ~n_clb:150 ~reconfig_ms_per_clb:0.01 "rc")
      ~bus:Platform.default_bus ()
  in
  let config =
    {
      Explorer.anneal =
        Annealer.for_budget ~seed:5 ~warmup:1_200 ~schedule:lam 9_200;
      moves = Repro_dse.Moves.fixed_architecture;
      objective = Explorer.Makespan;
    }
  in
  let result = Explorer.explore config app tiny in
  Alcotest.(check bool) "still beats all-software" true
    (result.Explorer.best_cost < App.total_sw_time app);
  match Repro_sched.Validate.evaluated (Solution.spec result.Explorer.best) with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "invalid: %s" (String.concat "; " msgs)

let suite =
  [
    Alcotest.test_case "large graph exploration" `Slow
      test_large_graph_exploration;
    Alcotest.test_case "large graph move walk" `Slow
      test_large_graph_invariants_after_walk;
    Alcotest.test_case "tiny device, many contexts" `Slow
      test_wide_app_many_contexts;
  ]
