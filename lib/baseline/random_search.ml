module Solution = Repro_dse.Solution
module Engine = Repro_dse.Engine

(* One iteration = one independent random sample; the generic driver
   keeps the best and the budget.  The RNG stream is exactly the
   historical one: the driver seeds Rng.create ctx.seed and every draw
   happens inside the step. *)
let engine_start ?payload (ctx : Engine.context) =
  let app = ctx.Engine.app and platform = ctx.Engine.platform in
  let best_seen = ref infinity in
  let codec =
    State_codec.solution_plus ~engine:"random" ~version:1 ~tag:"incumbent"
      best_seen app platform
  in
  Engine.drive ?payload ~codec ctx
    ~init:(fun _rng ->
      let s =
        match ctx.Engine.warm_start with
        | Some w -> Solution.copy w
        | None -> Solution.all_software app platform
      in
      let cost = Solution.makespan s in
      best_seen := cost;
      (s, cost, 1))
    ~step:(fun rng ~iteration:_ _state ->
      let candidate = Solution.random rng app platform in
      let cost = Solution.makespan candidate in
      let accepted = cost < !best_seen in
      if accepted then best_seen := cost;
      { Engine.state = candidate; cost; accepted; evaluations = 1 })
    ~snapshot:Solution.copy

module Engine_impl : Engine.S = struct
  let name = "random"
  let describe = "uniform random sampling of the solution space (control)"
  let knobs = "no knobs; one iteration = one random solution evaluated"
  let default_iterations = 5_000
  let start = engine_start
end

let engine : Engine.t = (module Engine_impl)
