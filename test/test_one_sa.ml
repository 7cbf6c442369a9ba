(* One annealer answers to "sa", built by one recipe
   ([Annealer.for_budget]).  The config every tool builds from a budget
   and a seed alone ([Explorer.sa_config]: dse-sweep and dse-pareto
   call it, dse-run with default flags builds the same record) run
   through [Explorer.explore], and a daemon job without a "warmup"
   field, run the way the daemon runs it, are the registered
   [Explorer.sa_engine] run through [Engine.run]: same best solution,
   same cost bits, same counters, at budgets on both sides of 12000
   (where the warmup rule stops growing).  And every tool's budget is
   the total: [iterations_run <= iters] for sa and tabu through
   [explore_with], [explore_restarts], the frontier and a daemon job,
   multi-mode mapping files exactly its [~iterations], while an sa
   warmup that leaves no cooling move is refused. *)

module Explorer = Repro_dse.Explorer
module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution
module Multi_mode = Repro_dse.Multi_mode
module Annealer = Repro_anneal.Annealer
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

(* A daemon job's sa, the way [Daemon] runs one chain of it: parse,
   load, configure, resolve, explore. *)
let job_result ~seed iters =
  let ok = function Ok x -> x | Error msg -> Alcotest.fail msg in
  let job =
    Job.of_json ~name:"one-sa"
      (Printf.sprintf
         "{\"app\": \"motion_detection\", \"iters\": %d, \"seed\": %d}"
         iters seed)
    |> ok
  in
  let app, platform = ok (Job.load_inputs job) in
  let config = Job.explorer_config job in
  let engine =
    ok (Job.resolve_engine ~config (Option.value job.Job.engine ~default:"sa"))
  in
  Explorer.explore_with engine config app platform

let identity ~path ~seed ~iters () =
  let app, platform = md () in
  let r =
    match path with
    | `Tool -> Explorer.explore (Explorer.sa_config ~seed iters) app platform
    | `Job -> job_result ~seed iters
  in
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
    (fun (path, what, budgets) ->
      List.concat_map
        (fun iters ->
          List.map
            (fun seed ->
              Alcotest.test_case
                (Printf.sprintf "%s = registered sa (seed %d, %d)" what seed
                   iters)
                `Quick (identity ~path ~seed ~iters))
            [ 1; 2 ])
        budgets)
    [
      (`Tool, "dse-run defaults", [ 2_000; 3_000; 20_000 ]);
      (`Job, "daemon job", [ 3_000; 20_000 ]);
    ]

(* Multi-mode mapping's [~iterations] is its total, warmup included. *)
let test_multi_mode_budget () =
  List.iter
    (fun n ->
      let r =
        Multi_mode.explore ~seed:3 ~iterations:n (Test_multi_mode.problem ())
          (Test_multi_mode.platform ())
      in
      Alcotest.(check int)
        (Printf.sprintf "multi-mode ~iterations:%d" n)
        n r.Multi_mode.iterations_run)
    [ 300; 2_000 ]

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
  | Ok j ->
    Alcotest.(check int) "default warmup is the rule" 70
      (Job.explorer_config j).Explorer.anneal.Annealer.warmup_iterations
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
      Alcotest.test_case "multi-mode files ~iterations as its total" `Quick
        test_multi_mode_budget;
      Alcotest.test_case "resolver refuses an sa warmup >= iters" `Quick
        test_resolver_refuses_no_cooling;
      Alcotest.test_case "job refuses an sa warmup >= iters" `Quick
        test_job_refuses_no_cooling;
      Alcotest.test_case "daemon quarantines an sa warmup >= iters" `Quick
        test_daemon_quarantines_no_cooling;
    ]
