open Repro_taskgraph
open Repro_arch
open Repro_sched
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module Rng = Repro_util.Rng
module Parallel = Repro_util.Parallel
module Checkpoint = Repro_util.Checkpoint

type objective =
  | Makespan
  | Makespan_serialized
  | Cost_under_deadline of { penalty_per_ms : float }

type config = {
  anneal : Annealer.config;
  moves : Moves.config;
  objective : objective;
}

let sa_config ?seed total =
  {
    anneal = Annealer.for_budget ?seed total;
    moves = Moves.fixed_architecture;
    objective = Makespan;
  }

let quality_config ?seed q =
  if q < 0.0 || q > 1.0 then
    invalid_arg "Explorer.quality_config: quality outside [0,1]";
  sa_config ?seed (int_of_float (2_000.0 *. (100.0 ** q)))

type result = {
  best : Solution.t;
  best_eval : Searchgraph.eval;
  best_cost : float;
  initial_cost : float;
  iterations_run : int;
  accepted : int;
  infeasible : int;
  wall_seconds : float;
  status : Engine.status;
}

(* The incumbent of a driver checkpoint, for cross-engine warm starts
   (--seed-from).  Deliberately *not* fingerprint-checked: the donor
   may be a different engine under a different seed or budget — the
   only requirement is that its best solution decodes against the
   current application and platform (the "inputs-only" rule).  Every
   engine, the portfolio included, writes the one driver format. *)
let read_incumbent path application platform =
  match Checkpoint.inspect path with
  | Error _ as e -> e
  | Ok (kind, _) when kind <> Engine.checkpoint_kind ->
    Error
      (Printf.sprintf "%s: checkpoint: kind %S holds no incumbent solution"
         path kind)
  | Ok (_, payload) ->
    Result.map_error
      (fun m -> path ^ ": checkpoint: " ^ m)
      (Engine.payload_incumbent application platform payload)

let cost_of objective solution =
  match objective with
  | Makespan -> Solution.makespan solution
  | Makespan_serialized ->
    (match Searchgraph.evaluate_serialized (Solution.spec solution) with
     | Some eval -> eval.Searchgraph.makespan
     | None -> infinity)
  | Cost_under_deadline { penalty_per_ms } ->
    let deadline =
      match (Solution.app solution).App.deadline with
      | Some d -> d
      | None ->
        invalid_arg "Explorer: Cost_under_deadline needs an app deadline"
    in
    let overshoot = Float.max 0.0 (Solution.makespan solution -. deadline) in
    Platform.total_cost (Solution.platform solution)
    +. (penalty_per_ms *. overshoot)

let meets_deadline application eval =
  match application.App.deadline with
  | None -> true
  | Some d -> eval.Searchgraph.makespan <= d

type frontier_point = {
  platform : Platform.t;
  eval : Searchgraph.eval;
  cost : float;
  meets : bool;
}

(* ---- the annealer on the engine driver ---------------------------- *)

(* The driven annealer's working state: the solution under annealing
   and the Metropolis chain around it. *)
type sa_state = { solution : Solution.t; chain : Annealer.chain }

let objective_label = function
  | Makespan -> "makespan"
  | Makespan_serialized -> "makespan-serialized"
  | Cost_under_deadline { penalty_per_ms } ->
    Printf.sprintf "cost-under-deadline/%h" penalty_per_ms

(* What a chain state is only valid under: the warmup/cooling split,
   the schedule, the objective and the move set.  The driver's
   fingerprint binds inputs, seed and total budget, not these — two
   configurations with the same total would otherwise resume each
   other's chains. *)
let config_label config =
  let a = config.anneal and m = config.moves in
  Printf.sprintf "warmup %d, cooling %d, %s schedule, %s objective, moves %s"
    a.Annealer.warmup_iterations a.Annealer.iterations
    (Schedule.name a.Annealer.schedule)
    (objective_label config.objective)
    (Checkpoint.crc32_hex
       (String.concat "\n"
          (Printf.sprintf "%h %h %h %h %h" m.Moves.p_impl m.Moves.p_new_context
             m.Moves.p_swap_contexts m.Moves.p_to_sw m.Moves.p_device
          :: List.map Platform_io.to_string m.Moves.device_catalogue)))

(* Chain state on disk, version 1: the configuration line, the chain
   ({!Annealer.encode_chain}), then the current solution. *)
let sa_codec config application platform : sa_state Engine.codec =
  let label = config_label config in
  let encode s =
    String.concat "\n"
      [ "config " ^ label; Annealer.encode_chain s.chain;
        Solution.encode s.solution ]
  in
  let decode text =
    let ( let* ) = Result.bind in
    match String.split_on_char '\n' text with
    | written :: rest ->
      let* () =
        match String.split_on_char ' ' written with
        | "config" :: _ when written = "config " ^ label -> Ok ()
        | "config" :: words ->
          Error
            (Printf.sprintf "annealed under %s; this run anneals under %s"
               (String.concat " " words) label)
        | _ -> Error "expected a config line"
      in
      let* chain, solution = Annealer.decode_chain config.anneal rest in
      let* solution =
        Solution.decode application platform (String.concat "\n" solution)
      in
      Ok { solution; chain }
    | [] -> Error "truncated chain state"
  in
  { Engine.engine = "sa"; version = 1; encode; decode }

(* One annealing run through the generic driver; its probes carry the
   chain's temperature and the working solution's context count. *)
let anneal ?payload config (ctx : Engine.context) =
  let cost = cost_of config.objective in
  let propose rng s = Moves.propose rng config.moves s in
  let anneal = config.anneal in
  let init _driver_rng =
    (* The random initial solution has its own stream, seeded like the
       annealing one: drawing it from the driver's stream would shift
       every later decision off the historical runs. *)
    let solution =
      match ctx.warm_start with
      | Some s -> Solution.copy s
      | None -> Solution.random (Rng.create ctx.seed) ctx.app ctx.platform
    in
    if Solution.evaluate solution = None then
      invalid_arg "Explorer.explore: initial solution is infeasible";
    let cost = cost solution in
    ({ solution; chain = Annealer.start anneal ~cost }, cost, 0)
  in
  let observed = ctx.observe <> None and last = ref None in
  let step rng ~iteration s =
    let move =
      Annealer.step anneal s.chain rng s.solution ~iteration ~cost ~propose
    in
    if observed then last := Some s;
    {
      Engine.state = s;
      cost = s.chain.Annealer.current_cost;
      accepted = move = Annealer.Accepted;
      (* An infeasible proposal is never evaluated, so evaluations
         count feasible moves and infeasible = iterations - evaluations. *)
      evaluations = (if move = Annealer.Infeasible then 0 else 1);
    }
  in
  let observe =
    Option.map
      (fun f (p : Engine.probe) ->
        let s = Option.get !last in
        f
          { p with
            Engine.temperature = s.chain.Annealer.temperature;
            n_contexts = Solution.n_contexts s.solution })
      ctx.observe
  in
  Engine.drive ?payload
    ~codec:(sa_codec config ctx.app ctx.platform)
    { ctx with observe } ~init ~step
    ~snapshot:(fun s -> Solution.copy s.solution)

let budget config =
  config.anneal.Annealer.warmup_iterations + config.anneal.Annealer.iterations

let annealer config : Engine.t =
  (module struct
    let name = "sa"
    let describe = "adaptive simulated annealing (the paper, \xc2\xa74)"
    let knobs = config_label config ^ "; one iteration = one proposed move"
    let default_iterations = budget config
    let start ?payload ctx = anneal ?payload config ctx
  end)

module Sa_engine : Engine.S = struct
  include (val annealer (sa_config 50_000) : Engine.S)

  let knobs =
    "Lam schedule (quality 150/budget, 0.003 at 50000); warmup = \
     min(1200, budget/10); one iteration = one proposed move"

  let start ?payload (ctx : Engine.context) =
    (* The annealer spends at most one evaluation per iteration, so an
       evaluation budget is enforced exactly by capping the move
       count. *)
    let total =
      match ctx.budget.max_evaluations with
      | Some m -> min ctx.budget.iterations m
      | None -> ctx.budget.iterations
    in
    if total < 2 then invalid_arg "sa engine: budget below 2 iterations";
    Engine.start
      (annealer (sa_config total))
      ?payload
      { ctx with budget = { ctx.budget with iterations = total } }
end

let sa_engine : Engine.t = (module Sa_engine)

let explore_with ?trace ?initial ?checkpoint ?should_stop engine config
    application platform =
  (* Only the annealer numbers its trace from the end of warmup and
     counts infeasible proposals. *)
  let sa = Engine.name engine = Sa_engine.name in
  let offset = if sa then config.anneal.Annealer.warmup_iterations else 0 in
  let observe =
    Option.map
      (fun t (p : Engine.probe) ->
        Trace.record t
          { Trace.iteration = p.iteration - offset; cost = p.cost;
            best = p.best; temperature = p.temperature;
            accepted = p.accepted; n_contexts = p.n_contexts })
      trace
  in
  let o =
    Engine.run engine
      (Engine.context ?should_stop ?observe ?checkpoint ?warm_start:initial
         ~app:application ~platform ~seed:config.anneal.Annealer.seed
         ~iterations:(budget config) ())
  in
  match Solution.evaluate o.best with
  | None -> failwith "Explorer: engine returned an infeasible best solution"
  | Some best_eval ->
    {
      best = o.best;
      best_eval;
      best_cost = o.best_cost;
      initial_cost = o.initial_cost;
      iterations_run = o.iterations_run;
      accepted = o.accepted;
      infeasible = (if sa then o.iterations_run - o.evaluations else 0);
      wall_seconds = o.wall_seconds;
      status = o.status;
    }

let explore ?trace ?initial ?checkpoint ?should_stop config =
  explore_with ?trace ?initial ?checkpoint ?should_stop (annealer config)
    config

(* ---- supervised restarts ----------------------------------------- *)

type restarts_report = {
  best_result : result option;
  restart_costs : (int * float) list;
  restart_outcomes : result Parallel.outcome array;
  degraded : int;
}

(* Items that did not complete cleanly. *)
let not_done outcomes =
  Array.fold_left
    (fun n -> function Parallel.Done _ -> n | _ -> n + 1)
    0 outcomes

let explore_restarts ?trace ?(jobs = 1) ?restart_timeout ?should_stop
    ?restart_checkpoint ?warm_start ~restarts engine config application
    platform =
  if restarts < 1 then invalid_arg "Explorer.explore_restarts: restarts < 1";
  (* Each chain's seed is a pure function of its index, and results are
     collected in index order, so the winner (first strict minimum) and
     the cost list are identical for every [jobs] value. *)
  let run_chain index ~stop =
    let seed = config.anneal.Annealer.seed + (index * 65_537) in
    let trace = if index = 0 then trace else None in
    let checkpoint =
      Option.map (fun path_of -> path_of index) restart_checkpoint
    in
    (* The per-restart deadline reaches the engine as its stop probe: a
       chain out of budget returns best-so-far at the next iteration
       boundary instead of being torn down. *)
    explore_with ?trace ?checkpoint ~should_stop:stop ?initial:warm_start
      engine
      { config with anneal = { config.anneal with Annealer.seed } }
      application platform
  in
  let outcomes =
    Parallel.map_outcomes ~jobs ?timeout:restart_timeout ?should_stop restarts
      run_chain
  in
  let survivors =
    Array.to_list outcomes
    |> List.mapi (fun index outcome -> (index, Parallel.outcome_value outcome))
    |> List.filter_map (fun (index, value) ->
           Option.map (fun r -> (index, r)) value)
  in
  let best =
    match survivors with
    | [] -> None
    | (_, first) :: rest ->
      Some
        (List.fold_left
           (fun best (_, candidate) ->
             if candidate.best_cost < best.best_cost then candidate else best)
           first rest)
  in
  {
    best_result = best;
    restart_costs = List.map (fun (i, r) -> (i, r.best_cost)) survivors;
    restart_outcomes = outcomes;
    degraded = not_done outcomes;
  }

let pareto_frontier candidates =
  let dominated point =
    List.exists
      (fun other ->
        other != point
        && other.cost <= point.cost
        && other.eval.Searchgraph.makespan <= point.eval.Searchgraph.makespan
        && (other.cost < point.cost
            || other.eval.Searchgraph.makespan
               < point.eval.Searchgraph.makespan))
      candidates
  in
  List.sort
    (fun a b -> compare (a.cost, a.eval.Searchgraph.makespan)
        (b.cost, b.eval.Searchgraph.makespan))
    (List.filter (fun p -> not (dominated p)) candidates)

type frontier_report = {
  frontier : frontier_point list;
  device_outcomes : frontier_point Parallel.outcome array;
  devices_lost : int;
  devices_cut_short : int list;
}

let cost_performance_frontier ?(seed = 1) ?(iterations = 20_000)
    ?(jobs = 1) ?device_timeout ?should_stop ?(engine = sa_engine) application
    catalogue =
  (* One independent exploration per catalogue device: a natural
     parallel grid (same seed per device as sequentially).  A device
     whose exploration fails or runs out of budget drops out of the
     frontier — the frontier over survivors equals the frontier over a
     catalogue with that device excluded a priori, because candidates
     never interact before the final dominance pass. *)
  let devices = Array.of_list catalogue in
  (* Slot [i] is written by device [i]'s body only. *)
  let stopped_early = Array.make (Array.length devices) false in
  let config = sa_config ~seed iterations in
  let outcomes =
    Parallel.map_outcomes ~jobs ?timeout:device_timeout ?should_stop
      (Array.length devices)
      (fun i ~stop ->
        let platform = devices.(i) in
        let result =
          explore_with ~should_stop:stop engine config application platform
        in
        stopped_early.(i) <- result.status = Engine.Interrupted;
        {
          platform;
          eval = result.best_eval;
          cost = Platform.total_cost platform;
          meets = meets_deadline application result.best_eval;
        })
  in
  let candidates =
    Array.to_list outcomes |> List.filter_map Parallel.outcome_value
  in
  {
    frontier = pareto_frontier candidates;
    device_outcomes = outcomes;
    devices_lost = not_done outcomes;
    (* Under [Done] the device deadline had not expired, so the caller's
       stop is what ended the search. *)
    devices_cut_short =
      List.filter
        (fun i ->
          stopped_early.(i)
          && match outcomes.(i) with Parallel.Done _ -> true | _ -> false)
        (List.init (Array.length devices) Fun.id);
  }
