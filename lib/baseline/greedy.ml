open Repro_taskgraph
module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution

let heaviest_fraction app fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Greedy.with_fraction: fraction outside [0,1]";
  let n = App.size app in
  let by_weight =
    List.sort
      (fun a b ->
        compare (App.task app b).Task.sw_time (App.task app a).Task.sw_time)
      (List.init n Fun.id)
  in
  let hw_count = int_of_float (Float.round (fraction *. float_of_int n)) in
  let hw = Array.make n false in
  List.iteri (fun position v -> if position < hw_count then hw.(v) <- true)
    by_weight;
  { Ga.hw; impl = Array.make n 0 }

let with_fraction app platform fraction =
  Ga.decode app platform (heaviest_fraction app fraction)

(* One iteration = one hardware fraction decoded and evaluated; a
   budget of n iterations sweeps n evenly spaced fractions.  The init
   state is the all-software mapping, so the sweep always has a
   feasible reference; only a strict improvement is accepted, so the
   first fraction reaching a cost wins ties. *)
let engine_run (ctx : Engine.context) =
  let app = ctx.Engine.app and platform = ctx.Engine.platform in
  let n = ctx.Engine.budget.Engine.iterations in
  let fraction i =
    if n <= 1 then 0.0 else float_of_int i /. float_of_int (n - 1)
  in
  let sweep_best = ref infinity in
  let codec =
    State_codec.solution_plus ~engine:"greedy" ~version:1 ~tag:"sweep"
      sweep_best app platform
  in
  Engine.drive ~codec ctx
    ~init:(fun _rng ->
      (* A warm start replaces the all-software reference: the sweep
         then only has to beat the donated incumbent. *)
      let s =
        match ctx.Engine.warm_start with
        | Some w -> Solution.snapshot w
        | None -> Solution.all_software app platform
      in
      (s, Solution.makespan s, 1))
    ~step:(fun _rng ~iteration state ->
      match
        Ga.solution_of app platform (heaviest_fraction app (fraction iteration))
      with
      | Error _ ->
        { Engine.state; cost = infinity; accepted = false; evaluations = 0 }
      | Ok candidate ->
        let cost = Solution.makespan candidate in
        let accepted = cost < !sweep_best in
        if accepted then sweep_best := cost;
        { Engine.state = candidate; cost; accepted; evaluations = 1 })
    ~snapshot:Solution.snapshot

module Engine_impl : Engine.S = struct
  let name = "greedy"

  let describe =
    "heaviest-tasks-to-hardware sweep (Noguera & Badia style partitioning)"

  let knobs =
    "no randomness; a budget of n iterations sweeps n evenly spaced \
     hardware fractions in [0,1]"

  let default_iterations = 11

  let run = engine_run
end

let engine : Engine.t = (module Engine_impl)
