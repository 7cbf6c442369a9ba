(* The paper's case study end to end: explore the 28-task motion
   detection application on the ARM922 + Virtex-E platform, check the
   40 ms real-time constraint, and show the schedule.

     dune exec examples/motion_detection.exe
*)

module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution

let () =
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  Format.printf "%a@.@." Repro_taskgraph.App.pp_summary app;
  Format.printf "%a@.@." Repro_arch.Platform.pp platform;

  let trace = Repro_dse.Trace.create ~every:100 () in
  let config = Explorer.sa_config ~seed:7 50_000 in
  let result = Explorer.explore ~trace config app platform in

  let eval = result.Explorer.best_eval in
  Format.printf
    "explored %d iterations (%.2f s): makespan %.1f ms, %d context(s)@."
    result.Explorer.iterations_run result.Explorer.wall_seconds
    eval.Repro_sched.Searchgraph.makespan eval.Repro_sched.Searchgraph.n_contexts;
  Format.printf "constraint 40 ms: %s@."
    (if Explorer.meets_deadline app eval then "MET" else "MISSED");
  let periodic =
    Repro_sched.Periodic.analyze (Solution.spec result.Explorer.best)
  in
  Format.printf
    "as a pipeline period (one image every 40 ms): sustainable from %.1f ms \
     (bottleneck %s)@.@."
    periodic.Repro_sched.Periodic.min_initiation_interval
    periodic.Repro_sched.Periodic.bottleneck;
  Format.printf "%a@." Solution.pp result.Explorer.best;
  (match Repro_sched.Gantt.render (Solution.spec result.Explorer.best) with
   | Some gantt -> print_string gantt
   | None -> ());
  (* Persist the iteration trace (Fig. 2 data) next to the binary. *)
  Repro_dse.Trace.to_csv trace "motion_detection_trace.csv";
  Format.printf "@.trace written to motion_detection_trace.csv (%d points)@."
    (Repro_dse.Trace.length trace)
