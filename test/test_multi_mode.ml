open Repro_taskgraph
open Repro_arch
module Multi_mode = Repro_dse.Multi_mode
module Engine = Repro_dse.Engine

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

(* A 48-task layered graph cut into two overlapping modes, each with a
   deadline at half its all-software time: a branching mode's contexts
   and software order can disagree, so on this 200-CLB device some
   states decode to a cyclic graph and take the infeasibility
   penalty. *)
let branching () =
  let app =
    Generators.layered ~name:"branching" (Repro_util.Rng.create 1)
      Generators.default_impl_model ~layers:8 ~width:10 ~edge_probability:0.12
      ~mean_sw_time:2.0 ~mean_kbytes:8.0
  in
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
  ( Multi_mode.make_problem ~name:"branching"
      ~tasks:(Array.to_list app.App.tasks)
      ~modes:[ mode "head" 0 (2 * n / 3); mode "tail" (n / 3) n ],
    Platform.with_rc_size (Repro_workloads.Suite.platform_for app) 200 )

let with_temp f =
  let path = Filename.temp_file "repro_multi_mode" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let checkpoint resume path = { Engine.path; every = 1_000_000; resume }

(* The run cut by its stop probe after [k] iterations, saving its
   checkpoint at the cut. *)
let explore_until ~k ~seed ~iterations path problem platform =
  let seen = ref 0 in
  Multi_mode.explore ~seed ~iterations
    ~observe:(fun _ -> incr seen)
    ~should_stop:(fun () -> !seen >= k)
    ~checkpoint:(checkpoint Engine.Resume_never path)
    problem platform

let bits (r : Multi_mode.result) =
  let a = r.Multi_mode.assignment in
  Printf.sprintf "%s %s %Lx %d"
    (String.concat ""
       (Array.to_list
          (Array.map (fun b -> if b then "1" else "0") a.Multi_mode.hw)))
    (String.concat ","
       (Array.to_list (Array.map string_of_int a.Multi_mode.impl)))
    (Int64.bits_of_float r.Multi_mode.worst_slack_ratio)
    r.Multi_mode.iterations_run

(* Each observation, bit for bit. *)
let probe_bits (p : Engine.probe) =
  Printf.sprintf "%d %Lx %Lx %b" p.Engine.iteration
    (Int64.bits_of_float p.Engine.cost)
    (Int64.bits_of_float p.Engine.best)
    p.Engine.accepted

(* The engine contract's resume rule, for the multi-mode annealer: a
   run stopped at iteration k (in warmup or while cooling) and resumed
   from its checkpoint finishes bit for bit as the run never stopped,
   and observes the same moves after k (the restored chain's schedule
   and warmup statistics steer every later acceptance). *)
let test_resume_bit_identical () =
  let iterations = 1_500 in
  let check_resume label (problem, platform) =
    let seen = ref [] in
    let observe p = seen := probe_bits p :: !seen in
    let full =
      Multi_mode.explore ~seed:3 ~iterations ~observe problem platform
    in
    let full_probes = List.rev !seen in
    List.iter
      (fun k ->
        with_temp (fun path ->
            let cut =
              explore_until ~k ~seed:3 ~iterations path problem platform
            in
            Alcotest.(check string)
              (Printf.sprintf "%s: stopped at %d" label k)
              "interrupted"
              (Engine.status_name cut.Multi_mode.status);
            Alcotest.(check int)
              (Printf.sprintf "%s: %d iterations before the stop" label k)
              k cut.Multi_mode.iterations_run;
            seen := [];
            let resumed =
              Multi_mode.explore ~seed:3 ~iterations ~observe
                ~checkpoint:(checkpoint Engine.Resume_required path)
                problem platform
            in
            Alcotest.(check string)
              (Printf.sprintf "%s: resumed at %d" label k)
              (bits full) (bits resumed);
            Alcotest.(check (list string))
              (Printf.sprintf "%s: moves observed after %d" label k)
              (List.filteri (fun i _ -> i >= k) full_probes)
              (List.rev !seen);
            Alcotest.(check string)
              (Printf.sprintf "%s: complete after resuming at %d" label k)
              "complete"
              (Engine.status_name resumed.Multi_mode.status)))
      [ 137; 1_234 ]
  in
  check_resume "chain" (problem (), platform ());
  check_resume "branching" (branching ())

(* The time limit is the engine contract's: a run far over its limit
   stops at an iteration boundary with its best so far. *)
let test_time_limit () =
  let result =
    Multi_mode.explore ~seed:3 ~iterations:50_000_000 ~time_limit:0.05
      (problem ()) (platform ())
  in
  Alcotest.(check string) "interrupted" "interrupted"
    (Engine.status_name result.Multi_mode.status);
  Alcotest.(check bool) "stopped early" true
    (result.Multi_mode.iterations_run < 50_000_000);
  Alcotest.(check int) "a best in every mode" 2
    (List.length result.Multi_mode.per_mode)

(* A checkpoint binds its problem, platform, seed and budget: any other
   run refuses it with one line. *)
let test_foreign_checkpoint_refused () =
  let problem = problem () and platform = platform () in
  with_temp (fun path ->
      ignore
        (explore_until ~k:500 ~seed:3 ~iterations:1_500 path problem platform);
      let refused label ?(seed = 3) ?(iterations = 1_500) ?(platform = platform)
          problem =
        match
          Multi_mode.explore ~seed ~iterations
            ~checkpoint:(checkpoint Engine.Resume_required path)
            problem platform
        with
        | _ -> Alcotest.fail (label ^ ": foreign checkpoint resumed")
        | exception Failure msg ->
          Alcotest.(check bool) (label ^ ": one line, " ^ msg) true
            (not (String.contains msg '\n'));
          Alcotest.(check bool) (label ^ ": names the mismatch, " ^ msg) true
            (String.ends_with
               ~suffix:"produced under a different \
                        application/platform/seed/budget"
               msg)
      in
      refused "another seed" ~seed:4 problem;
      refused "another budget" ~iterations:1_600 problem;
      refused "another problem"
        (Multi_mode.make_problem ~name:"videophone" ~tasks
           ~modes:[ capture_mode; { playback_mode with deadline = 7.0 } ]);
      refused "another platform" ~platform:(Platform.with_rc_size platform 120)
        problem;
      (* The file itself is untouched: the right run still resumes it. *)
      Alcotest.(check string) "own run resumes" "complete"
        (Engine.status_name
           (Multi_mode.explore ~seed:3 ~iterations:1_500
              ~checkpoint:(checkpoint Engine.Resume_required path)
              problem platform)
             .Multi_mode.status);
      (* A well-formed file whose genes name an implementation past the
         last task's variants is refused as well. *)
      let module Checkpoint = Repro_util.Checkpoint in
      let payload =
        Result.get_ok (Checkpoint.load path ~kind:Engine.checkpoint_kind)
      in
      let tamper line =
        if String.starts_with ~prefix:"genes " line then
          String.sub line 0 (String.rindex line ' ') ^ " 9"
        else line
      in
      Checkpoint.save path ~kind:Engine.checkpoint_kind
        (String.concat "\n"
           (List.map tamper (String.split_on_char '\n' payload)));
      match
        Multi_mode.explore ~seed:3 ~iterations:1_500
          ~checkpoint:(checkpoint Engine.Resume_required path)
          problem platform
      with
      | _ -> Alcotest.fail "out-of-range implementation resumed"
      | exception Failure msg ->
        Alcotest.(check bool) ("tampered genes, " ^ msg) true
          (String.ends_with ~suffix:"bad genes line" msg))

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
    Alcotest.test_case "resumed run is bit-identical" `Quick
      test_resume_bit_identical;
    Alcotest.test_case "foreign checkpoint refused" `Quick
      test_foreign_checkpoint_refused;
    Alcotest.test_case "time limit interrupts" `Quick test_time_limit;
  ]
