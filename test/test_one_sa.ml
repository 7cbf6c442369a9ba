(* One annealer answers to "sa".  The configuration dse-run builds from
   its default flags, run through [Explorer.explore], is the registered
   [Explorer.sa_engine] run through [Engine.run]: same best solution,
   same cost bits, same counters, at budgets on both sides of 12000
   (where the warmup rule stops growing).  And every tool's budget is
   the total: [iterations_run <= iters] for sa and tabu through
   [explore_with], [explore_restarts], the frontier and a daemon job,
   while an sa warmup that leaves no cooling move is refused. *)

module Explorer = Repro_dse.Explorer
module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution
module Moves = Repro_dse.Moves
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module Md = Repro_workloads.Motion_detection
module Checkpoint = Repro_util.Checkpoint
module Json = Repro_util.Json_lite
module Atomic_io = Repro_util.Atomic_io
module Log = Repro_util.Log
module Job = Repro_serve.Job
module Spool = Repro_serve.Spool
module Daemon = Repro_serve.Daemon

let () = Repro_baseline.Engines.register_all ()

let md () = (Md.app (), Md.platform ~n_clb:2000 ())
let crc s = Checkpoint.crc32_hex (Solution.encode s)

(* What dse-run builds from --iters [iters] --seed [seed] and every
   other flag at its default. *)
let dse_run_config ~seed iters =
  let warmup = Explorer.default_warmup iters in
  {
    Explorer.anneal =
      {
        Annealer.iterations = iters - warmup;
        warmup_iterations = warmup;
        schedule = Schedule.lam ~quality:0.003 ();
        seed;
      };
    moves = Moves.fixed_architecture;
    objective = Explorer.Makespan;
  }

let identity ~seed ~iters () =
  let app, platform = md () in
  let r = Explorer.explore (dse_run_config ~seed iters) app platform in
  let o =
    Engine.run Explorer.sa_engine
      (Engine.context ~app ~platform ~seed ~iterations:iters ())
  in
  let label what = Printf.sprintf "seed %d, %d iterations: %s" seed iters what in
  Alcotest.(check string) (label "best CRC") (crc o.Engine.best)
    (crc r.Explorer.best);
  Alcotest.(check int64) (label "cost bits")
    (Int64.bits_of_float o.Engine.best_cost)
    (Int64.bits_of_float r.Explorer.best_cost);
  Alcotest.(check (list int)) (label "counters")
    [ o.Engine.iterations_run; o.Engine.accepted;
      o.Engine.iterations_run - o.Engine.evaluations ]
    [ r.Explorer.iterations_run; r.Explorer.accepted; r.Explorer.infeasible ];
  Alcotest.(check int) (label "the whole budget") iters r.Explorer.iterations_run

let identity_cases =
  List.concat_map
    (fun iters ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "dse-run defaults = registered sa (seed %d, %d)"
               seed iters)
            `Quick (identity ~seed ~iters))
        [ 1; 2 ])
    [ 2_000; 20_000 ]

(* ---- one budget unit --------------------------------------------- *)

let engine name iters =
  match Job.resolve_engine ~config:(Explorer.sa_config iters) name with
  | Ok e -> e
  | Error msg -> Alcotest.fail msg

(* Per engine: a budget that fits a quick test. *)
let budgets = [ ("sa", 1_500); ("tabu", 12) ]

let within what iters (r : Explorer.result) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d iterations within %d" what
       r.Explorer.iterations_run iters)
    true
    (r.Explorer.iterations_run <= iters && r.Explorer.iterations_run > 0)

let test_explore_budget () =
  let app, platform = md () in
  List.iter
    (fun (name, iters) ->
      let config = Explorer.sa_config ~seed:3 iters in
      within (name ^ " explore_with") iters
        (Explorer.explore_with (engine name iters) config app platform);
      let report =
        Explorer.explore_restarts ~restarts:2 (engine name iters) config app
          platform
      in
      Array.iter
        (fun outcome ->
          match Repro_util.Parallel.outcome_value outcome with
          | Some r -> within (name ^ " restart") iters r
          | None -> Alcotest.fail "restart lost")
        report.Explorer.restart_outcomes)
    budgets;
  within "sa explore" 1_500
    (Explorer.explore (Explorer.sa_config 1_500) app platform)

(* The frontier reports points, not counters: its budget is the total
   when each device's point is the one a direct run of that budget
   finds. *)
let test_frontier_budget () =
  let app = Md.app () in
  let catalogue = [ Md.platform ~n_clb:800 () ] in
  List.iter
    (fun (name, iters) ->
      let report =
        Explorer.cost_performance_frontier ~seed:4 ~iterations:iters
          ~engine:(engine name iters) app catalogue
      in
      let direct =
        Explorer.explore_with (engine name iters)
          (Explorer.sa_config ~seed:4 iters) app (List.hd catalogue)
      in
      within (name ^ " frontier device") iters direct;
      match report.Explorer.frontier with
      | [ p ] ->
        Alcotest.(check int64) (name ^ ": frontier point = direct run")
          (Int64.bits_of_float direct.Explorer.best_eval.makespan)
          (Int64.bits_of_float p.Explorer.eval.makespan)
      | _ -> Alcotest.fail "one device, one point")
    budgets

let with_spool f =
  let root = Filename.temp_dir "repro_one_sa" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f (Spool.create root))

let quiet_config =
  { Daemon.default_config with
    Daemon.once = true; retries = 0; backoff = None; poll_interval = 0.01 }

let enqueue spool name text =
  Atomic_io.write_string (Spool.job_path spool name) text

let result_fields spool name =
  match Atomic_io.read_file (Spool.result_path spool name) with
  | Error msg -> Alcotest.fail msg
  | Ok text -> (
    match Json.parse_obj text with
    | Ok fields -> fields
    | Error msg -> Alcotest.fail msg)

let test_daemon_budget () =
  Log.set_level Log.Error;
  with_spool @@ fun spool ->
  List.iter
    (fun (name, iters) ->
      enqueue spool (name ^ ".json")
        (Printf.sprintf
           "{\"app\": \"motion_detection\", \"engine\": %S, \"iters\": %d, \
            \"seed\": 5}"
           name iters))
    budgets;
  let _outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check int) "both complete" 2 stats.Daemon.completed;
  List.iter
    (fun (name, iters) ->
      match Json.num_field (result_fields spool (name ^ ".json"))
              "iterations_run" with
      | Some n ->
        Alcotest.(check bool)
          (Printf.sprintf "%s job: %g iterations within %d" name n iters)
          true
          (n > 0.0 && n <= float_of_int iters)
      | None -> Alcotest.fail "no iterations_run")
    budgets

(* ---- sa alone needs a cooling move -------------------------------- *)

let is_one_line_error = function
  | Error msg -> not (String.contains msg '\n')
  | Ok _ -> false

let test_resolver_refuses_no_cooling () =
  let config iters warmup =
    let c = Explorer.sa_config iters in
    { c with
      anneal =
        { c.anneal with
          Annealer.warmup_iterations = warmup; iterations = iters - warmup } }
  in
  Alcotest.(check bool) "sa, warmup = iters" true
    (is_one_line_error (Job.resolve_engine ~config:(config 300 300) "sa"));
  Alcotest.(check bool) "sa, warmup > iters" true
    (is_one_line_error (Job.resolve_engine ~config:(config 20 200) "sa"));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " ignores warmup") true
        (Result.is_ok (Job.resolve_engine ~config:(config 20 200) name)))
    [ "tabu"; "greedy"; "ga" ]

let test_job_refuses_no_cooling () =
  let job extra =
    Job.of_json ~name:"w"
      (Printf.sprintf
         "{\"app\": \"motion_detection\", \"iters\": 200, \"warmup\": 200%s}"
         extra)
  in
  Alcotest.(check bool) "no engine field" true (is_one_line_error (job ""));
  Alcotest.(check bool) "engine sa" true
    (is_one_line_error (job ", \"engine\": \"sa\""));
  (match job ", \"engine\": \"tabu\"" with
   | Ok j ->
     (* Every other engine still spends all 200 iterations. *)
     Alcotest.(check int) "tabu budget" 200
       (Explorer.budget (Job.explorer_config j))
   | Error msg -> Alcotest.fail msg);
  match Job.of_json ~name:"d" "{\"app\": \"motion_detection\", \"iters\": 700}" with
  | Ok j -> Alcotest.(check int) "default warmup is the rule" 70 j.Job.warmup
  | Error msg -> Alcotest.fail msg

let test_daemon_quarantines_no_cooling () =
  Log.set_level Log.Error;
  with_spool @@ fun spool ->
  enqueue spool "nc.json"
    "{\"app\": \"motion_detection\", \"iters\": 100, \"warmup\": 100}";
  let _outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check int) "quarantined" 1 stats.Daemon.quarantined;
  Alcotest.(check bool) "job preserved in failed/" true
    (Sys.file_exists (Spool.failed_path spool "nc.json"))

let suite =
  identity_cases
  @ [
      Alcotest.test_case "iterations_run <= iters: explore, restarts" `Quick
        test_explore_budget;
      Alcotest.test_case "iterations_run <= iters: frontier" `Quick
        test_frontier_budget;
      Alcotest.test_case "iterations_run <= iters: daemon job" `Quick
        test_daemon_budget;
      Alcotest.test_case "resolver refuses an sa warmup >= iters" `Quick
        test_resolver_refuses_no_cooling;
      Alcotest.test_case "job refuses an sa warmup >= iters" `Quick
        test_job_refuses_no_cooling;
      Alcotest.test_case "daemon quarantines an sa warmup >= iters" `Quick
        test_daemon_quarantines_no_cooling;
    ]
