open Repro_taskgraph
open Repro_arch
open Repro_sched

let impl clbs hw_time = { Task.clbs; hw_time }

let platform () =
  Platform.make ~name:"p"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.01 "rc")
    ~bus:{ Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
    ()

let app () =
  let t id sw_time = Task.make ~id ~name:(Printf.sprintf "t%d" id)
      ~functionality:"F" ~sw_time ~impls:[ impl 40 (sw_time /. 4.0) ] in
  App.make ~name:"p3" ~tasks:[ t 0 2.0; t 1 4.0; t 2 1.0 ]
    ~edges:[ { App.src = 0; dst = 1; kbytes = 8.0 };
             { App.src = 1; dst = 2; kbytes = 8.0 } ]
    ()

let spec ~binding ~sw_order ~contexts =
  Searchgraph.single_processor_spec ~app:(app ()) ~platform:(platform ())
    ~binding ~impl_choice:(fun _ -> 0) ~sw_order ~contexts

let find loads name =
  match List.find_opt (fun l -> l.Periodic.resource = name) loads with
  | Some l -> l.Periodic.busy
  | None -> Alcotest.failf "no load entry for %s" name

let checkf = Alcotest.(check (float 1e-9))

let test_all_software () =
  let s =
    spec ~binding:(fun _ -> Searchgraph.Sw) ~sw_order:[ 0; 1; 2 ] ~contexts:[]
  in
  let analysis = Periodic.analyze s in
  checkf "cpu busy = total sw" 7.0 (find analysis.Periodic.loads "cpu0");
  checkf "rc idle" 0.0 (find analysis.Periodic.loads "rc");
  checkf "bus idle" 0.0 (find analysis.Periodic.loads "bus");
  checkf "II" 7.0 analysis.Periodic.min_initiation_interval;
  Alcotest.(check string) "bottleneck" "cpu0" analysis.Periodic.bottleneck

let test_mixed_mapping () =
  let s =
    spec
      ~binding:(fun v -> if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw)
      ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ]
  in
  let analysis = Periodic.analyze s in
  checkf "cpu busy" 3.0 (find analysis.Periodic.loads "cpu0");
  (* RC: 1.0 ms of computation + 0.4 ms of (repeated) reconfiguration. *)
  checkf "rc busy" 1.4 (find analysis.Periodic.loads "rc");
  (* Two crossings of 8 kB: 0.15 ms each. *)
  checkf "bus busy" 0.3 (find analysis.Periodic.loads "bus");
  checkf "II is the cpu" 3.0 analysis.Periodic.min_initiation_interval;
  (* Pipelined feasibility vs latency: latency is 4.3 ms (see the
     searchgraph tests) but one iteration can start every 3 ms. *)
  let interval = analysis.Periodic.min_initiation_interval in
  Alcotest.(check bool) "sustains 3 ms" true (interval <= 3.0);
  Alcotest.(check bool) "cannot sustain 2.9 ms" false (interval <= 2.9)

let test_latency_vs_period () =
  let s =
    spec
      ~binding:(fun v -> if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw)
      ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ]
  in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some eval ->
    let analysis = Periodic.analyze s in
    (* For a single-processor mapping with serial transfers, the
       steady-state interval cannot exceed the one-shot latency. *)
    Alcotest.(check bool) "II <= latency here" true
      (analysis.Periodic.min_initiation_interval
       <= eval.Searchgraph.makespan +. 1e-9)

let test_motion_detection_period () =
  (* The paper's 40 ms constraint read as a pipeline period: the
     all-software mapping cannot sustain it (76.4 ms busy CPU), a good
     explored mapping can. *)
  let app = Repro_workloads.Motion_detection.app () in
  let platform = Repro_workloads.Motion_detection.platform () in
  let all_sw = Repro_dse.Solution.all_software app platform in
  let interval s =
    (Periodic.analyze (Repro_dse.Solution.spec s))
      .Periodic.min_initiation_interval
  in
  Alcotest.(check bool) "all-software cannot sustain 40 ms" false
    (interval all_sw <= 40.0);
  let config =
    {
      (Repro_dse.Explorer.sa_config 51_200) with
      anneal =
        Repro_anneal.Annealer.for_budget ~seed:2 ~warmup:1_200
          ~schedule:(Repro_anneal.Schedule.lam ~quality:0.003 ()) 51_200;
    }
  in
  let result = Repro_dse.Explorer.explore config app platform in
  Alcotest.(check bool) "explored mapping sustains 40 ms" true
    (interval result.Repro_dse.Explorer.best <= 40.0)

let qcheck_all_software_period_is_total_time =
  QCheck.Test.make
    ~name:"all-software initiation interval equals the total software time"
    ~count:50
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, depth) ->
      let rng = Repro_util.Rng.create (seed + 29) in
      let model = Generators.default_impl_model in
      let application =
        Generators.layered rng model ~layers:depth ~width:3
          ~edge_probability:0.4 ~mean_sw_time:2.0 ~mean_kbytes:4.0
      in
      let s = Repro_dse.Solution.all_software application (platform ()) in
      let analysis = Periodic.analyze (Repro_dse.Solution.spec s) in
      abs_float
        (analysis.Periodic.min_initiation_interval
        -. App.total_sw_time application)
      < 1e-9)

let qcheck_period_never_negative =
  QCheck.Test.make ~name:"resource loads are non-negative" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Repro_util.Rng.create (seed + 31) in
      let model = Generators.default_impl_model in
      let application =
        Generators.series_parallel rng model ~depth:4 ~mean_sw_time:1.5
          ~mean_kbytes:4.0
      in
      let s =
        Repro_dse.Solution.random (Repro_util.Rng.split rng) application
          (platform ())
      in
      let analysis = Periodic.analyze (Repro_dse.Solution.spec s) in
      List.for_all (fun l -> l.Periodic.busy >= 0.0) analysis.Periodic.loads
      && analysis.Periodic.min_initiation_interval >= 0.0)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_all_software_period_is_total_time;
    QCheck_alcotest.to_alcotest qcheck_period_never_negative;
    Alcotest.test_case "all software" `Quick test_all_software;
    Alcotest.test_case "mixed mapping" `Quick test_mixed_mapping;
    Alcotest.test_case "latency vs period" `Quick test_latency_vs_period;
    Alcotest.test_case "motion detection period" `Slow
      test_motion_detection_period;
  ]
