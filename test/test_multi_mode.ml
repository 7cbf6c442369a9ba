open Repro_taskgraph
open Repro_arch
module Multi_mode = Repro_dse.Multi_mode

let impl clbs hw_time = { Task.clbs; hw_time }

(* A small video-phone-like system: capture mode and playback mode
   share the color-conversion and scaling kernels; encode/decode are
   mode-specific. *)
let tasks =
  let t id name sw_time clbs =
    Task.make ~id ~name ~functionality:name ~sw_time
      ~impls:[ impl clbs (sw_time /. 5.0); impl (2 * clbs) (sw_time /. 8.0) ]
  in
  [
    t 0 "capture" 1.0 10;
    t 1 "color_convert" 3.0 20;
    t 2 "scale" 2.5 20;
    t 3 "encode" 6.0 60;
    t 4 "transmit" 0.8 10;
    t 5 "receive" 0.8 10;
    t 6 "decode" 5.0 50;
    t 7 "display" 1.0 10;
  ]

let edge src dst = { App.src; dst; kbytes = 8.0 }

let capture_mode =
  {
    Multi_mode.mode_name = "capture";
    members = [ 0; 1; 2; 3; 4 ];
    edges = [ edge 0 1; edge 1 2; edge 2 3; edge 3 4 ];
    deadline = 6.0;
  }

let playback_mode =
  {
    Multi_mode.mode_name = "playback";
    members = [ 5; 6; 1; 2; 7 ];
    edges = [ edge 5 6; edge 6 1; edge 1 2; edge 2 7 ];
    deadline = 6.0;
  }

let problem () =
  Multi_mode.make_problem ~name:"videophone" ~tasks
    ~modes:[ capture_mode; playback_mode ]

let platform () =
  Platform.make ~name:"p"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb:150 ~reconfig_ms_per_clb:0.005 "rc")
    ~bus:{ Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
    ()

let test_make_problem_validation () =
  Alcotest.check_raises "no modes"
    (Invalid_argument "Multi_mode.make_problem: no mode") (fun () ->
      ignore (Multi_mode.make_problem ~name:"x" ~tasks ~modes:[]));
  Alcotest.check_raises "unknown member"
    (Invalid_argument "Multi_mode: mode bad references unknown task 99")
    (fun () ->
      ignore
        (Multi_mode.make_problem ~name:"x" ~tasks
           ~modes:
             [ { Multi_mode.mode_name = "bad"; members = [ 99 ]; edges = [];
                 deadline = 1.0 } ]))

let test_realize_all_software () =
  let problem = problem () in
  let assignment =
    { Multi_mode.hw = Array.make 8 false; impl = Array.make 8 0 }
  in
  let realized = Multi_mode.realize problem (platform ()) assignment in
  Alcotest.(check int) "one spec per mode" 2 (List.length realized);
  List.iter
    (fun ((mode : Multi_mode.mode), spec) ->
      match Repro_sched.Searchgraph.evaluate spec with
      | Some eval ->
        (* All-software: makespan is the sum of member software times. *)
        let expected =
          List.fold_left
            (fun acc v -> acc +. (List.nth tasks v).Task.sw_time)
            0.0 mode.Multi_mode.members
        in
        Alcotest.(check (float 1e-9))
          (mode.Multi_mode.mode_name ^ " all-sw makespan")
          expected eval.Repro_sched.Searchgraph.makespan
      | None -> Alcotest.fail "all-software decode must be feasible")
    realized

let test_shared_binding () =
  let problem = problem () in
  let assignment =
    { Multi_mode.hw = Array.of_list [ false; true; true; false; false; false;
                                      false; false ];
      impl = Array.make 8 0 }
  in
  let realized = Multi_mode.realize problem (platform ()) assignment in
  (* The shared kernels 1 and 2 are in hardware in BOTH modes. *)
  List.iter
    (fun ((mode : Multi_mode.mode), spec) ->
      Alcotest.(check int)
        (mode.Multi_mode.mode_name ^ " has a context")
        1
        (List.length spec.Repro_sched.Searchgraph.contexts))
    realized

let test_realize_is_the_ga_decode () =
  let problem = problem () and platform = platform () in
  let assignment : Repro_baseline.Ga.individual =
    { Multi_mode.hw = Array.of_list [ true; true; true; false; true; false;
                                      false; false ];
      impl = Array.of_list [ 1; 0; 1; 0; 0; 0; 0; 0 ] }
  in
  (* The capture mode holds tasks 0-4 in order, so its local genes are
     the first five: the GA's decode of them on the mode's own
     application is the same schedule. *)
  let mode_app =
    App.make ~name:"capture" ~deadline:6.0
      ~tasks:(List.filteri (fun i _ -> i < 5) tasks)
      ~edges:capture_mode.Multi_mode.edges ()
  in
  let local =
    { Repro_baseline.Ga.hw = Array.sub assignment.Multi_mode.hw 0 5;
      impl = Array.sub assignment.Multi_mode.impl 0 5 }
  in
  let makespan spec =
    match Repro_sched.Searchgraph.evaluate spec with
    | Some e -> e.Repro_sched.Searchgraph.makespan
    | None -> infinity
  in
  (match Multi_mode.realize problem platform assignment with
   | (_, spec) :: _ ->
     Alcotest.(check (float 0.0)) "capture mode decodes as the GA does"
       (Repro_baseline.Ga.fitness mode_app platform local)
       (makespan spec)
   | [] -> Alcotest.fail "no mode");
  (* A hardware gene's implementation index past the task's variants
     is a bounds error, not a silent 0. *)
  let bad = { assignment with Multi_mode.impl = Array.make 8 7 } in
  match Multi_mode.realize problem platform bad with
  | _ -> Alcotest.fail "out-of-range implementation accepted"
  | exception Invalid_argument _ -> ()

let test_explore_meets_both_modes () =
  let problem = problem () in
  let result = Multi_mode.explore ~seed:3 ~iterations:8_000 problem (platform ()) in
  Alcotest.(check int) "two modes" 2 (List.length result.Multi_mode.per_mode);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Multi_mode.mode.Multi_mode.mode_name ^ " meets its deadline") true
        r.Multi_mode.meets)
    result.Multi_mode.per_mode;
  Alcotest.(check bool) "positive worst slack" true
    (result.Multi_mode.worst_slack_ratio > 0.0);
  (* The shared decision is one vector: tasks 1 and 2 have a single
     binding used by both modes. *)
  Alcotest.(check int) "8 shared genes" 8
    (Array.length result.Multi_mode.assignment.Multi_mode.hw)

let test_explore_deterministic () =
  let problem = problem () in
  let run () =
    (Multi_mode.explore ~seed:5 ~iterations:2_000 problem (platform ()))
      .Multi_mode.worst_slack_ratio
  in
  Alcotest.(check (float 1e-12)) "same seed same result" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "make_problem validation" `Quick
      test_make_problem_validation;
    Alcotest.test_case "realize all software" `Quick test_realize_all_software;
    Alcotest.test_case "shared binding" `Quick test_shared_binding;
    Alcotest.test_case "realize is the GA decode" `Quick
      test_realize_is_the_ga_decode;
    Alcotest.test_case "explore meets both modes" `Quick
      test_explore_meets_both_modes;
    Alcotest.test_case "explore deterministic" `Quick test_explore_deterministic;
  ]
