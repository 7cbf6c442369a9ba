(* Golden pins of the historical search streams.  Each case runs one
   entry point on a small fixed input and compares the CRC of the best
   solution's canonical text, the bits of its cost and the run's
   counters against values recorded before a refactor of the code
   behind it (see [golden]).  Any change to the order of random draws,
   to the Metropolis decisions or to the warmup/cooling split shows up
   here as a CRC or counter mismatch. *)

module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Engine = Repro_dse.Engine
module Moves = Repro_dse.Moves
module Solution = Repro_dse.Solution
module Multi_mode = Repro_dse.Multi_mode
module Searchgraph = Repro_sched.Searchgraph
module Platform = Repro_arch.Platform
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module Checkpoint = Repro_util.Checkpoint
module Fault = Repro_util.Fault
module Parallel = Repro_util.Parallel
module Json = Repro_util.Json_lite
module Atomic_io = Repro_util.Atomic_io
module Log = Repro_util.Log
module Spool = Repro_serve.Spool
module Daemon = Repro_serve.Daemon

let crc s = Checkpoint.crc32_hex (Solution.encode s)

let pin ~best ~cost counters =
  Printf.sprintf "%s %Lx %s" (crc best) (Int64.bits_of_float cost)
    (String.concat " " (List.map string_of_int counters))

let pin_result (r : Explorer.result) =
  pin ~best:r.Explorer.best ~cost:r.Explorer.best_cost
    [ r.Explorer.iterations_run; r.Explorer.accepted; r.Explorer.infeasible ]

let config ?(schedule = Schedule.lam ~quality:0.003 ())
    ?(objective = Explorer.Makespan) ?(moves = Moves.fixed_architecture) ~seed
    ~iterations ~warmup () =
  {
    Explorer.anneal =
      { Annealer.iterations; warmup_iterations = warmup; schedule; seed };
    moves;
    objective;
  }

let md () = (Md.app (), Md.platform ~n_clb:2000 ())

let explore cfg =
  let app, platform = md () in
  pin_result (Explorer.explore cfg app platform)

let explore_default () =
  explore (config ~seed:3 ~iterations:3_000 ~warmup:300 ())

let explore_serialized () =
  explore
    (config ~objective:Explorer.Makespan_serialized ~seed:4 ~iterations:2_000
       ~warmup:200 ())

let explore_swartz () =
  explore
    (config ~schedule:(Schedule.swartz ()) ~seed:5 ~iterations:3_000
       ~warmup:300 ())

let explore_architecture () =
  let app = Md.app () in
  let catalogue =
    List.map (fun n -> Md.platform ~n_clb:n ()) [ 400; 1000; 2000; 5000; 10000 ]
  in
  let cfg =
    config ~moves:(Moves.exploration catalogue)
      ~objective:(Explorer.Cost_under_deadline { penalty_per_ms = 50.0 })
      ~seed:6 ~iterations:3_000 ~warmup:300 ()
  in
  pin_result (Explorer.explore cfg app (List.nth catalogue 4))

let supervised_restarts () =
  let app, platform = md () in
  let report =
    let cfg = config ~seed:7 ~iterations:1_500 ~warmup:200 () in
    Explorer.explore_restarts ~jobs:2 ~restarts:3 (Explorer.annealer cfg) cfg
      app platform
  in
  let best =
    match report.Explorer.best_result with
    | Some r -> pin_result r
    | None -> "lost"
  in
  String.concat " "
    (best
     :: List.map
          (fun (i, c) -> Printf.sprintf "%d:%Lx" i (Int64.bits_of_float c))
          report.Explorer.restart_costs)

let degraded_restarts () =
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  Fault.arm_point ~site:Fault.Worker ~index:1;
  let app, platform = md () in
  let report =
    let cfg = config ~seed:7 ~iterations:1_500 ~warmup:200 () in
    Explorer.explore_restarts ~jobs:2 ~restarts:3 (Explorer.annealer cfg) cfg
      app platform
  in
  let best =
    match report.Explorer.best_result with
    | Some r -> Printf.sprintf "%Lx" (Int64.bits_of_float r.Explorer.best_cost)
    | None -> "lost"
  in
  String.concat " "
    (List.map Parallel.outcome_name
       (Array.to_list report.Explorer.restart_outcomes)
     @ List.map (fun (i, _) -> string_of_int i) report.Explorer.restart_costs
     @ [ best ])

let frontier () =
  let app = Md.app () in
  let catalogue =
    List.map (fun n -> Md.platform ~n_clb:n ()) [ 200; 800; 5000 ]
  in
  let report =
    Explorer.cost_performance_frontier ~seed:4 ~iterations:2_000 ~jobs:2 app
      catalogue
  in
  String.concat " "
    (List.map
       (fun (p : Explorer.frontier_point) ->
         Printf.sprintf "%d:%Lx:%Lx:%d:%b"
           (Platform.n_clb p.Explorer.platform)
           (Int64.bits_of_float p.Explorer.cost)
           (Int64.bits_of_float p.Explorer.eval.Searchgraph.makespan)
           p.Explorer.eval.Searchgraph.n_contexts p.Explorer.meets)
       report.Explorer.frontier)

let registered_sa () =
  let app, platform = md () in
  let o =
    Engine.run Explorer.sa_engine
      (Engine.context ~max_evaluations:1_800 ~app ~platform ~seed:8
         ~iterations:5_000 ())
  in
  pin ~best:o.Engine.best ~cost:o.Engine.best_cost
    [ o.Engine.iterations_run; o.Engine.evaluations; o.Engine.accepted ]

(* The benchmark's ~1000-task recipe: 8 layers up to 250 tasks wide,
   p = 0.015, the first generator seed reaching 1000 tasks, 600-CLB
   contexts; SA warm-started from the all-software design for 2000
   moves (a tenth of them warmup, as the registered engine splits). *)
let layered1k () =
  let open Repro_taskgraph in
  let rec find seed =
    let app =
      Generators.layered ~name:"layered1k" (Repro_util.Rng.create seed)
        Generators.default_impl_model ~layers:8 ~width:250
        ~edge_probability:0.015 ~mean_sw_time:2.0 ~mean_kbytes:8.0
    in
    if App.size app >= 1000 then app else find (seed + 1)
  in
  let app = find 1 in
  let platform =
    Platform.with_rc_size (Repro_workloads.Suite.platform_for app) 600
  in
  pin_result
    (Explorer.explore
       ~initial:(Solution.all_software app platform)
       (config ~seed:1 ~iterations:1_800 ~warmup:200 ())
       app platform)

(* A registered GA engine through the generic driver, 3 generations. *)
let registered_ga name app platform =
  Repro_baseline.Engines.register_all ();
  let engine =
    match Repro_dse.Engine_registry.find name with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let o =
    Engine.run engine (Engine.context ~app ~platform ~seed:1 ~iterations:3 ())
  in
  pin ~best:o.Engine.best ~cost:o.Engine.best_cost
    [ o.Engine.evaluations; o.Engine.iterations_run ]

(* The benchmark's 132-task recipe: 8 layers up to 31 tasks wide,
   p = 0.12, the first generator seed reaching 128 tasks, 600-CLB
   contexts. *)
let layered128 () =
  let open Repro_taskgraph in
  let rec find seed =
    let app =
      Generators.layered ~name:"layered128" (Repro_util.Rng.create seed)
        Generators.default_impl_model ~layers:8 ~width:31
        ~edge_probability:0.12 ~mean_sw_time:2.0 ~mean_kbytes:8.0
    in
    if App.size app >= 128 then app else find (seed + 1)
  in
  let app = find 1 in
  (app, Platform.with_rc_size (Repro_workloads.Suite.platform_for app) 600)

let ga132 () =
  let app, platform = layered128 () in
  registered_ga "ga" app platform

let ga_md28 () =
  let app, platform = md () in
  registered_ga "ga" app platform

let ga_spatial_md28 () =
  let app, platform = md () in
  registered_ga "ga-spatial" app platform

(* A portfolio spec on motion detection at 2000 CLBs, seed 1. *)
let portfolio spec iterations () =
  Repro_baseline.Engines.register_all ();
  let engine =
    match Repro_dse.Portfolio.resolve spec with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let app, platform = md () in
  let o =
    Engine.run engine (Engine.context ~app ~platform ~seed:1 ~iterations ())
  in
  pin ~best:o.Engine.best ~cost:o.Engine.best_cost
    [ o.Engine.iterations_run; o.Engine.evaluations; o.Engine.accepted ]

(* Motion detection on the ARM + DSP + FPGA board of [data/]: two
   processors, so the best solutions keep two software chains — the
   other pins all map onto one processor. *)
let two_processor_board () =
  let app =
    match Repro_taskgraph.App_io.load "../data/motion_detection.tg" with
    | Ok app -> app
    | Error msg -> Alcotest.fail msg
  in
  match Repro_arch.Platform_io.load "../data/arm_dsp_fpga.plat" with
  | Ok platform -> (app, platform)
  | Error msg -> Alcotest.fail msg

(* The pin also counts the best solution's non-empty chains. *)
let board_engine name iterations () =
  Repro_baseline.Engines.register_all ();
  let engine =
    match Repro_dse.Engine_registry.find name with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let app, platform = two_processor_board () in
  let o =
    Engine.run engine (Engine.context ~app ~platform ~seed:5 ~iterations ())
  in
  let chains =
    List.length (List.filter (( <> ) []) (Solution.sw_orders o.Engine.best))
  in
  pin ~best:o.Engine.best ~cost:o.Engine.best_cost
    [ o.Engine.iterations_run; o.Engine.evaluations; o.Engine.accepted; chains ]

let daemon_job () =
  let root = Filename.temp_dir "repro_golden" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
  @@ fun () ->
  let spool = Spool.create root in
  Atomic_io.write_string
    (Spool.job_path spool "golden.json")
    "{\"app\": \"motion_detection\", \"iters\": 700, \"warmup\": 100, \
     \"seed\": 9}";
  let config =
    { Daemon.default_config with Daemon.once = true; poll_interval = 0.01 }
  in
  ignore (Daemon.run config spool);
  let text =
    match Atomic_io.read_file (Filename.concat root "results/golden.json") with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  match Json.parse_obj text with
  | Error msg -> Alcotest.fail msg
  | Ok fields ->
    let field f = Option.get (Json.find fields f) in
    Printf.sprintf "%s %Lx %d %d %d"
      (Option.get (Json.get_str (field "solution")))
      (Int64.bits_of_float (Option.get (Json.get_num (field "best_cost"))))
      (Option.get (Json.get_int (field "iterations_run")))
      (Option.get (Json.get_int (field "accepted")))
      (Option.get (Json.get_int (field "infeasible")))

let pin_multi_mode r =
  let a = r.Multi_mode.assignment in
  Printf.sprintf "%s %s %Lx %d"
    (String.concat ""
       (Array.to_list
          (Array.map (fun b -> if b then "1" else "0") a.Multi_mode.hw)))
    (String.concat ","
       (Array.to_list (Array.map string_of_int a.Multi_mode.impl)))
    (Int64.bits_of_float r.Multi_mode.worst_slack_ratio)
    r.Multi_mode.iterations_run

let multi_mode () =
  let open Repro_taskgraph in
  let t id sw_time clbs =
    Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F" ~sw_time
      ~impls:
        [
          { Task.clbs; hw_time = sw_time /. 5.0 };
          { Task.clbs = 2 * clbs; hw_time = sw_time /. 8.0 };
        ]
  in
  let edge src dst = { App.src; dst; kbytes = 8.0 } in
  let mode name members edges =
    { Multi_mode.mode_name = name; members; edges; deadline = 6.0 }
  in
  let problem =
    Multi_mode.make_problem ~name:"golden"
      ~tasks:[ t 0 1.0 10; t 1 3.0 20; t 2 2.5 20; t 3 6.0 60; t 4 5.0 50 ]
      ~modes:
        [
          mode "a" [ 0; 1; 2; 3 ] [ edge 0 1; edge 1 2; edge 2 3 ];
          mode "b" [ 4; 1; 2 ] [ edge 4 1; edge 1 2 ];
        ]
  in
  let platform =
    Repro_arch.Platform.make ~name:"p"
      ~processor:(Repro_arch.Resource.processor "cpu")
      ~rc:
        (Repro_arch.Resource.reconfigurable ~n_clb:150
           ~reconfig_ms_per_clb:0.005 "rc")
      ~bus:{ Repro_arch.Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
      ()
  in
  pin_multi_mode (Multi_mode.explore ~seed:3 ~iterations:2_000 problem platform)

(* The 132-task layered graph cut into two overlapping 88-task modes
   (the first 88 ids and the last 88, 44 shared), each with a deadline
   at half its all-software time.  Unlike the chains above, a branching
   mode's clustered contexts and list-scheduled software order can
   disagree, so many proposals decode to a cyclic search graph and take
   the infeasibility penalty. *)
let multi_mode_branching () =
  let open Repro_taskgraph in
  let app, platform = layered128 () in
  let n = App.size app in
  let mode name lo hi =
    let inside v = v >= lo && v < hi in
    let members = List.init (hi - lo) (fun i -> lo + i) in
    {
      Multi_mode.mode_name = name;
      members;
      edges =
        List.filter
          (fun { App.src; dst; _ } -> inside src && inside dst)
          (App.edges app);
      deadline =
        0.5
        *. List.fold_left
             (fun acc v -> acc +. (App.task app v).Task.sw_time)
             0.0 members;
    }
  in
  let problem =
    Multi_mode.make_problem ~name:"golden-branching"
      ~tasks:(Array.to_list app.App.tasks)
      ~modes:[ mode "head" 0 88; mode "tail" (n - 88) n ]
  in
  pin_multi_mode (Multi_mode.explore ~seed:3 ~iterations:2_000 problem platform)

(* Recorded before the annealer became a driven engine; the degraded
   restarts and the frontier, before the strict restart and frontier
   wrappers were folded into their supervised forms (a device dominated
   by a cheaper, faster one does not appear); the 1000-task run, before
   the move path's membership tests, Pearce–Kelly scratch and makespan
   reads stopped scanning the whole graph; the two GA streams, before
   the application indexed its edges and topological order once at
   construction; the two-processor board runs, before the software
   orders became linked chains; the four portfolio schedules, before
   lanes stopped round-tripping through member checkpoint files between
   slices; the branching multi-mode run, before the multi-mode explorer
   decoded and scored its genes through the GA's planner; the ga run
   on motion detection, whose ranks tie, before the decoder's software
   order became a stable sort of the topological order alone.  The
   frontier was re-recorded when its budget became the total move count
   with the registered annealer's warmup share (200 of 2000 moves, where
   it ran 1200 warmup moves on top of 2000 cooling ones before).  Every
   run of the registered sa below 50000 moves (the frontier, the
   evaluation-budget run, the portfolio lanes, the board run) and the
   two multi-mode runs were re-recorded when one recipe began to set
   every annealer's Lam quality to 150/total moves (the registered sa
   cooled at 0.003 on any budget) and multi-mode's [~iterations] became
   its total, warmup included. *)
let golden =
  [
    ( "explore default",
      explore_default,
      "c387aec4 403875da92c8f351 3300 968 1877" );
    ( "explore serialized bus",
      explore_serialized,
      "ddb4f793 403b13f96f161485 2200 1020 1025" );
    ( "explore swartz schedule",
      explore_swartz,
      "756078ee 403900bc40f11407 3300 1101 1703" );
    ( "explore cost under deadline, architecture moves",
      explore_architecture,
      "22f7368f 4034000000000000 3300 1469 1607" );
    ( "supervised restarts, 3 chains on 2 jobs",
      supervised_restarts,
      "4e0a263f 4041898b2d2de6ce 1700 697 960 0:4041898b2d2de6ce \
       1:40465e7fcc0f5f37 2:404417ec6431765d" );
    ( "restarts with a failing worker",
      degraded_restarts,
      "done failed done 0 2 4041898b2d2de6ce" );
    ( "frontier of three devices",
      frontier,
      "200:4028000000000000:4047bf3976773c1d:3:false \
       800:4032000000000000:403c00db5fa93fee:1:true \
       5000:404e000000000000:403b78e1a96f59be:1:true" );
    ( "registered sa, evaluation budget",
      registered_sa,
      "f3278c39 403bd02ce5cf8de8 1800 952 698" );
    ( "sa on the 1000-task layered benchmark graph",
      layered1k,
      "f7136908 40a149cb2f7ef31a 2000 862 1121" );
    ( "daemon job without an engine field",
      daemon_job,
      "ec8b08b3 403b6fe1ac965222 700 212 363" );
    ( "registered ga on the 132-task layered benchmark graph",
      ga132,
      "1dcbd260 40667c661c0da1a4 1195 3" );
    ( "registered ga on motion detection",
      ga_md28,
      "8be9d50b 403cc61ef80330e6 1195 3" );
    ( "registered ga-spatial on motion detection",
      ga_spatial_md28,
      "b4d50a54 403e898cff3659cb 1195 3" );
    ( "portfolio round-robin sa+hill",
      portfolio "portfolio:rr:sa+hill" 2_000,
      "511f473c 40376c9655027079 2000 916 410" );
    ( "portfolio race sa+tabu",
      portfolio "portfolio:race:sa+tabu" 400,
      "19e11c31 4036e8de93630d1f 400 5153 548" );
    ( "portfolio race sa+tabu to a target",
      portfolio "portfolio:race:sa+tabu:target=25" 400,
      "a755c537 4038f9a50c9cdf0a 183 2295 251" );
    ( "portfolio chain greedy+sa",
      portfolio "portfolio:chain:greedy+sa" 600,
      "2b1f7860 403f15121deeabb6 600 471 182" );
    ( "sa on the two-processor board",
      board_engine "sa" 4_000,
      "ed2cc9e9 4035a409326713c1 4000 2256 1451 2" );
    ( "tabu on the two-processor board",
      board_engine "tabu" 60,
      "b898555e 4035654b6a619daa 60 792 60 2" );
    ( "multi-mode explore",
      multi_mode,
      "11111 1,1,1,1,0 3fe1cccccccccccd 2000" );
    ( "multi-mode explore, branching modes",
      multi_mode_branching,
      "010010000111000001100100111100011011001100101110001000100110110100\
      010010110001010010100100000011001001101000001101100000101110111000 \
      0,2,3,3,2,4,0,4,1,4,0,0,2,2,4,4,1,0,4,4,3,1,1,0,1,4,0,0,2,1,3,0,2,\
      2,4,1,3,1,1,2,1,2,3,4,1,3,0,2,4,3,2,1,0,3,3,0,0,3,1,2,1,0,0,0,4,4,\
      4,2,4,0,0,0,4,1,3,2,3,0,2,0,4,3,3,3,0,0,2,3,3,1,1,2,4,2,3,0,0,1,1,\
      0,2,3,0,2,3,4,4,0,2,0,0,0,2,0,3,3,2,4,0,1,3,4,3,2,4,0,4,1,2,4,3,1 \
      bfd93637e2c91221 2000" );
  ]

let suite =
  List.map
    (fun (label, run, expected) ->
      Alcotest.test_case label `Quick (fun () ->
          Log.set_level Log.Error;
          Alcotest.(check string) label expected (run ())))
    golden
