(* Architecture exploration: instead of fixing the device, give the
   explorer a catalogue of FPGA sizes with costs and ask for the
   cheapest platform that meets the 40 ms constraint (the paper's
   general objective, realized through the m3/m4-style device moves).

     dune exec examples/custom_architecture.exe
*)

module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Moves = Repro_dse.Moves
module Solution = Repro_dse.Solution
module Annealer = Repro_anneal.Annealer

let () =
  let app = Md.app () in
  let catalogue =
    List.map (fun n_clb -> Md.platform ~n_clb ()) Md.fig3_sizes
  in
  let start = Md.platform ~n_clb:10000 () in
  let config =
    {
      Explorer.anneal = Annealer.for_budget ~seed:3 50_000;
      moves = Moves.exploration catalogue;
      objective = Explorer.Cost_under_deadline { penalty_per_ms = 50.0 };
    }
  in
  let result = Explorer.explore config app start in
  let best = result.Explorer.best in
  let platform = Solution.platform best in
  let eval = result.Explorer.best_eval in
  Format.printf "cheapest deadline-meeting platform found:@.%a@."
    Repro_arch.Platform.pp platform;
  Format.printf
    "cost %.1f, makespan %.1f ms (deadline %.0f ms, %s), %d context(s)@."
    (Repro_arch.Platform.total_cost platform)
    eval.Repro_sched.Searchgraph.makespan Md.deadline_ms
    (if Explorer.meets_deadline app eval then "met" else "missed")
    eval.Repro_sched.Searchgraph.n_contexts
