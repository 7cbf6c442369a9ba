(* Beyond the paper's 1-processor experiments: the general model of §3
   allows several processors.  Map the motion-detection study onto an
   ARM + DSP + FPGA SoC and compare with the paper's ARM + FPGA.

     dune exec examples/heterogeneous_soc.exe
*)

open Repro_arch
module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Annealer = Repro_anneal.Annealer

let explore app platform =
  let config =
    {
      Explorer.anneal = Annealer.for_budget ~seed:9 50_000;
      moves = Repro_dse.Moves.fixed_architecture;
      objective = Explorer.Makespan;
    }
  in
  Explorer.explore config app platform

let () =
  let app = Md.app () in
  let arm_fpga = Md.platform ~n_clb:400 () in
  (* Same FPGA plus a DSP that runs the estimates 1.5x faster than the
     ARM922 (typical for the filtering-heavy kernels). *)
  let arm_dsp_fpga =
    Platform.make ~name:"arm_dsp_virtexE"
      ~processor:(Resource.processor ~cost:10.0 "ARM922")
      ~rc:
        (Resource.reconfigurable ~cost:4.0 ~n_clb:400
           ~reconfig_ms_per_clb:Md.reconfig_ms_per_clb "VirtexE")
      ~extra:[ Resource.processor ~cost:6.0 ~speed:1.5 "C55x_DSP" ]
      ~bus:{ Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
      ()
  in
  List.iter
    (fun platform ->
      let result = explore app platform in
      let eval = result.Explorer.best_eval in
      let sw_loads =
        List.map
          (fun order ->
            List.fold_left
              (fun acc v ->
                acc
                +. (Repro_taskgraph.App.task app v).Repro_taskgraph.Task.sw_time)
              0.0 order)
          (Solution.sw_orders result.Explorer.best)
      in
      Format.printf
        "@[<v>%a@,makespan %.1f ms (%d context(s)), deadline 40 ms %s@,\
         software load per processor: %s ms@,@]@."
        Platform.pp platform result.Explorer.best_cost
        eval.Repro_sched.Searchgraph.n_contexts
        (if Explorer.meets_deadline app eval then "met" else "missed")
        (String.concat " / "
           (List.map (fun l -> Printf.sprintf "%.1f" l) sw_loads)))
    [ arm_fpga; arm_dsp_fpga ]
