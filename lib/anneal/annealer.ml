module Rng = Repro_util.Rng
module Stats = Repro_util.Stats

module type PROBLEM = sig
  type state

  val cost : state -> float
  val snapshot : state -> state
  val propose : Rng.t -> state -> (unit -> unit) option
end

type config = {
  iterations : int;
  warmup_iterations : int;
  schedule : Schedule.t;
  seed : int;
}

let default_config =
  {
    iterations = 50_000;
    warmup_iterations = 1_200;
    schedule = Schedule.lam ~quality:0.003 ();
    seed = 1;
  }

let lam_schedule iterations =
  Schedule.lam ~quality:(150.0 /. float_of_int iterations) ()

let config_of_budget ?(seed = 1) ?warmup iterations =
  {
    iterations;
    warmup_iterations =
      (match warmup with Some w -> w | None -> max 200 (iterations / 20));
    schedule = lam_schedule iterations;
    seed;
  }

let config_of_quality ?seed q =
  if q < 0.0 || q > 1.0 then
    invalid_arg "Annealer.config_of_quality: quality outside [0,1]";
  config_of_budget ?seed (int_of_float (2_000.0 *. (100.0 ** q)))

type chain = {
  schedule : Schedule.instance;
  warmup : Stats.Running.t;
  mutable current_cost : float;
  mutable temperature : float;
}

let check_budget config =
  if config.iterations < 0 || config.warmup_iterations < 0 then
    invalid_arg "Annealer: negative budget"

let start config ~cost =
  check_budget config;
  let warmup = Stats.Running.create () in
  Stats.Running.add warmup cost;
  {
    schedule = Schedule.instantiate config.schedule;
    warmup;
    current_cost = cost;
    temperature = infinity;
  }

let restore config ~schedule ~warmup ~cost =
  check_budget config;
  let instance = Schedule.instantiate config.schedule in
  Schedule.restore instance schedule;
  let stats = Stats.Running.create () in
  Stats.Running.restore stats warmup;
  { schedule = instance; warmup = stats; current_cost = cost;
    temperature = infinity }

type move = Infeasible | Rejected | Accepted

type 'state outcome = {
  best : 'state;
  best_cost : float;
  final_cost : float;
  iterations_run : int;
  accepted : int;
  infeasible : int;
}

module Make (P : PROBLEM) = struct
  (* Iteration g < warmup is a warmup move at infinite temperature; the
     schedule starts at g = warmup, everything after cools adaptively.
     A boundary before g = warmup leaves the schedule unstarted, so a
     chain restored there re-runs [Schedule.start] from the restored
     warmup statistics. *)
  let step config chain rng state ~iteration =
    let warmup = config.warmup_iterations in
    if iteration = warmup then
      Schedule.start chain.schedule
        ~mean:(Stats.Running.mean chain.warmup)
        ~stddev:(Stats.Running.stddev chain.warmup)
        ~horizon:config.iterations;
    let cooling = iteration >= warmup in
    let temperature =
      if cooling then Schedule.temperature chain.schedule else infinity
    in
    chain.temperature <- temperature;
    match P.propose rng state with
    | None ->
      (* The drawn move is structurally invalid ("not performed" in
         the paper's terms): no state change happened, so the cooling
         schedule does not observe it either. *)
      Infeasible
    | Some undo ->
      let candidate = P.cost state in
      let delta = candidate -. chain.current_cost in
      let accept =
        delta <= 0.0
        || temperature = infinity
        || Rng.float rng 1.0 < exp (-.delta /. temperature)
      in
      if accept then chain.current_cost <- candidate else undo ();
      if cooling then
        Schedule.observe chain.schedule ~cost:chain.current_cost
          ~accepted:accept
      else Stats.Running.add chain.warmup chain.current_cost;
      if accept then Accepted else Rejected

  let run ?trace config state =
    let rng = Rng.create config.seed in
    let chain = start config ~cost:(P.cost state) in
    let best = ref (P.snapshot state) in
    let best_cost = ref chain.current_cost in
    let accepted = ref 0 and infeasible = ref 0 in
    let warmup = config.warmup_iterations in
    let total = warmup + config.iterations in
    for g = 0 to total - 1 do
      let move = step config chain rng state ~iteration:g in
      (match move with
       | Infeasible -> incr infeasible
       | Rejected -> ()
       | Accepted ->
         incr accepted;
         if chain.current_cost < !best_cost then begin
           best_cost := chain.current_cost;
           best := P.snapshot state
         end);
      match trace with
      | None -> ()
      | Some f ->
        f ~iteration:(g - warmup) ~cost:chain.current_cost ~best:!best_cost
          ~temperature:chain.temperature ~accepted:(move = Accepted)
    done;
    {
      best = !best;
      best_cost = !best_cost;
      final_cost = chain.current_cost;
      iterations_run = total;
      accepted = !accepted;
      infeasible = !infeasible;
    }
end
