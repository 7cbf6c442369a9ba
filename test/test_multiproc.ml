open Repro_taskgraph
open Repro_arch
open Repro_sched
module Solution = Repro_dse.Solution
module Moves = Repro_dse.Moves
module Explorer = Repro_dse.Explorer
module Annealer = Repro_anneal.Annealer
module Rng = Repro_util.Rng

let impl clbs hw_time = { Task.clbs; hw_time }

let dual_platform ?(dsp_speed = 1.0) () =
  Platform.make ~name:"dual"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.01 "rc")
    ~extra:[ Resource.processor ~speed:dsp_speed "dsp" ]
    ~bus:{ Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
    ()

let independent_app () =
  let t id = Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F"
      ~sw_time:4.0 ~impls:[ impl 10 1.0 ] in
  App.make ~name:"independent" ~tasks:[ t 0; t 1 ] ~edges:[] ()

let test_platform_processors () =
  let p = dual_platform ~dsp_speed:2.0 () in
  Alcotest.(check int) "two processors" 2 (Platform.processor_count p);
  Alcotest.(check (float 1e-9)) "primary speed" 1.0 (Platform.processor_speed p 0);
  Alcotest.(check (float 1e-9)) "dsp speed" 2.0 (Platform.processor_speed p 1);
  Alcotest.check_raises "unknown processor"
    (Invalid_argument "Platform.processor_speed: no such processor") (fun () ->
      ignore (Platform.processor_speed p 2))

let spec_two_procs ?(dsp_speed = 1.0) () =
  {
    Searchgraph.app = independent_app ();
    platform = dual_platform ~dsp_speed ();
    binding = (fun _ -> Searchgraph.Sw);
    impl_choice = (fun _ -> 0);
    sw_order = [ 0 ];
    contexts = [];
    proc_of = (fun v -> v);
    extra_sw_orders = [ [ 1 ] ];
  }

let test_parallel_execution () =
  let s = spec_two_procs () in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    (* On one processor the two tasks serialize to 8 ms; on two they
       run in parallel. *)
    Alcotest.(check (float 1e-9)) "parallel" 4.0 e.Searchgraph.makespan

let test_heterogeneous_speed () =
  let s = spec_two_procs ~dsp_speed:2.0 () in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    (* Task 1 runs on the 2x DSP: finishes at 2; task 0 at 4. *)
    Alcotest.(check (float 1e-9)) "fast processor wins" 4.0 e.Searchgraph.makespan;
    Alcotest.(check (float 1e-9)) "dsp finish" 2.0 e.Searchgraph.finish.(1)

let test_cross_processor_transfer () =
  let t id = Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F"
      ~sw_time:2.0 ~impls:[ impl 10 1.0 ] in
  let app =
    App.make ~name:"chain2" ~tasks:[ t 0; t 1 ]
      ~edges:[ { App.src = 0; dst = 1; kbytes = 8.0 } ] ()
  in
  let spec proc_of extra =
    {
      Searchgraph.app;
      platform = dual_platform ();
      binding = (fun _ -> Searchgraph.Sw);
      impl_choice = (fun _ -> 0);
      sw_order = (if extra = [] then [ 0; 1 ] else [ 0 ]);
      contexts = [];
      proc_of;
      extra_sw_orders = extra;
    }
  in
  let same = spec (fun _ -> 0) [] in
  let split = spec (fun v -> v) [ [ 1 ] ] in
  match (Searchgraph.evaluate same, Searchgraph.evaluate split) with
  | Some same, Some split ->
    Alcotest.(check (float 1e-9)) "same processor free" 4.0
      same.Searchgraph.makespan;
    (* 8 kB over the 80 kB/ms bus + 0.05 latency = 0.15 ms. *)
    Alcotest.(check (float 1e-9)) "crossing pays the bus" 4.15
      split.Searchgraph.makespan;
    Alcotest.(check (float 1e-9)) "comm accounted" 0.15 split.Searchgraph.comm
  | None, _ | _, None -> Alcotest.fail "feasible"

let test_validate_checks_proc_of () =
  let s = spec_two_procs () in
  (match Validate.evaluated s with
   | Ok () -> ()
   | Error msgs -> Alcotest.failf "valid spec rejected: %s" (String.concat ";" msgs));
  let inconsistent = { s with Searchgraph.proc_of = (fun _ -> 0) } in
  match Validate.evaluated inconsistent with
  | Ok () -> Alcotest.fail "must reject proc_of mismatch"
  | Error _ -> ()

(* Solution-level: moves spread work over both processors and keep
   invariants. *)
let pipeline_app () =
  let t id sw_time = Task.make ~id ~name:(Printf.sprintf "t%d" id)
      ~functionality:"F" ~sw_time ~impls:[ impl 30 (sw_time /. 3.0) ] in
  App.make ~name:"wide"
    ~tasks:[ t 0 1.0; t 1 4.0; t 2 4.0; t 3 4.0; t 4 1.0 ]
    ~edges:
      [
        { App.src = 0; dst = 1; kbytes = 4.0 };
        { App.src = 0; dst = 2; kbytes = 4.0 };
        { App.src = 0; dst = 3; kbytes = 4.0 };
        { App.src = 1; dst = 4; kbytes = 4.0 };
        { App.src = 2; dst = 4; kbytes = 4.0 };
        { App.src = 3; dst = 4; kbytes = 4.0 };
      ]
    ()

let test_moves_use_second_processor () =
  let rng = Rng.create 5 in
  let s = Solution.all_software (pipeline_app ()) (dual_platform ()) in
  let used_second = ref false in
  for _ = 1 to 2_000 do
    ignore (Moves.propose rng Moves.fixed_architecture s);
    (match Solution.sw_orders s with
     | [ _; second ] when second <> [] -> used_second := true
     | _ :: _ | [] -> ());
    match Solution.check_invariants s with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "invariants: %s" msg
  done;
  Alcotest.(check bool) "second processor explored" true !used_second

let test_explorer_benefits_from_second_processor () =
  (* Implementations too large for the device: the circuit is useless,
     so the only parallelism available is the second processor. *)
  let t id sw_time = Task.make ~id ~name:(Printf.sprintf "t%d" id)
      ~functionality:"F" ~sw_time ~impls:[ impl 500 (sw_time /. 3.0) ] in
  let app =
    App.make ~name:"wide_sw_only"
      ~tasks:[ t 0 1.0; t 1 4.0; t 2 4.0; t 3 4.0; t 4 1.0 ]
      ~edges:
        [
          { App.src = 0; dst = 1; kbytes = 4.0 };
          { App.src = 0; dst = 2; kbytes = 4.0 };
          { App.src = 0; dst = 3; kbytes = 4.0 };
          { App.src = 1; dst = 4; kbytes = 4.0 };
          { App.src = 2; dst = 4; kbytes = 4.0 };
          { App.src = 3; dst = 4; kbytes = 4.0 };
        ]
      ()
  in
  let single =
    Platform.make ~name:"single"
      ~processor:(Resource.processor "cpu")
      ~rc:(Resource.reconfigurable ~n_clb:35 ~reconfig_ms_per_clb:0.01 "rc")
      ~bus:{ Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
      ()
  in
  let dual =
    Platform.make ~name:"dual"
      ~processor:(Resource.processor "cpu")
      ~rc:(Resource.reconfigurable ~n_clb:35 ~reconfig_ms_per_clb:0.01 "rc")
      ~extra:[ Resource.processor "cpu2" ]
      ~bus:{ Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
      ()
  in
  let explore platform =
    let config =
      {
        Explorer.anneal =
          Annealer.for_budget ~seed:11 ~warmup:1_200
            ~schedule:(Repro_anneal.Schedule.lam ~quality:0.003 ()) 11_200;
        moves = Moves.fixed_architecture;
        objective = Explorer.Makespan;
      }
    in
    (Explorer.explore config app platform).Explorer.best_cost
  in
  let single_best = explore single in
  let dual_best = explore dual in
  Alcotest.(check bool)
    (Printf.sprintf "dual (%.2f) beats single (%.2f)" dual_best single_best)
    true
    (dual_best < single_best -. 0.5)

let test_validate_multiproc_solutions () =
  let rng = Rng.create 23 in
  let s = Solution.all_software (pipeline_app ()) (dual_platform ()) in
  for _ = 1 to 500 do
    ignore (Moves.propose rng Moves.fixed_architecture s);
    match Validate.evaluated (Solution.spec s) with
    | Ok () -> ()
    | Error msgs ->
      Alcotest.failf "schedule invalid: %s" (String.concat "; " msgs)
  done

let test_gantt_processor_lanes () =
  let s = spec_two_procs () in
  match Gantt.lane_summary s with
  | None -> Alcotest.fail "feasible"
  | Some text ->
    let contains needle =
      let n = String.length needle and h = String.length text in
      let rec scan i = i + n <= h && (String.sub text i n = needle || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool) "primary lane" true (contains "Proc0:");
    Alcotest.(check bool) "extra lane" true (contains "Proc1:")

let test_replace_platform_guards_processors () =
  let s = Solution.all_software (pipeline_app ()) (dual_platform ()) in
  let single =
    Platform.make ~name:"single"
      ~processor:(Resource.processor "cpu")
      ~rc:(Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.01 "rc")
      ~bus:Platform.default_bus ()
  in
  Alcotest.check_raises "processor count mismatch"
    (Invalid_argument
       "Solution.replace_platform: platforms must have the same number of \
        processors") (fun () -> Solution.replace_platform s single)

let suite =
  [
    Alcotest.test_case "platform processors" `Quick test_platform_processors;
    Alcotest.test_case "parallel execution" `Quick test_parallel_execution;
    Alcotest.test_case "heterogeneous speed" `Quick test_heterogeneous_speed;
    Alcotest.test_case "cross-processor transfer" `Quick
      test_cross_processor_transfer;
    Alcotest.test_case "validate checks proc_of" `Quick
      test_validate_checks_proc_of;
    Alcotest.test_case "moves use second processor" `Quick
      test_moves_use_second_processor;
    Alcotest.test_case "explorer benefits" `Slow
      test_explorer_benefits_from_second_processor;
    Alcotest.test_case "multiproc schedules validate" `Quick
      test_validate_multiproc_solutions;
    Alcotest.test_case "gantt processor lanes" `Quick test_gantt_processor_lanes;
    Alcotest.test_case "replace_platform guard" `Quick
      test_replace_platform_guards_processors;
  ]
