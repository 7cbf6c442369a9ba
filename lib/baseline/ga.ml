open Repro_taskgraph
open Repro_arch
open Repro_sched
module Rng = Repro_util.Rng
module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution

type config = {
  population : int;
  crossover_rate : float;
  mutation_rate : float;
  tournament : int;
  elite : int;
  explore_impls : bool;
}

let default_config =
  {
    population = 300;
    crossover_rate = 0.9;
    mutation_rate = 0.02;
    tournament = 3;
    elite = 2;
    explore_impls = true;
  }

type individual = { hw : bool array; impl : int array }

(* The deterministic realization of a chromosome, shared by the spec
   decoder and the Solution builder: temporal partitioning by
   clustering, software order by list scheduling on upward ranks. *)
let plan app platform individual =
  let limit = Platform.n_clb platform in
  let impl_choice v = individual.impl.(v) in
  let fits v =
    (Task.impl (App.task app v) (impl_choice v)).Task.clbs <= limit
  in
  let is_hw v = individual.hw.(v) && fits v in
  let contexts = Repro_sched.Clustering.contexts app platform ~is_hw ~impl_choice in
  (* Positional context of each hardware task, -1 for software: one
     array read per query on the ranking and ordering paths. *)
  let position = Array.make (App.size app) (-1) in
  List.iteri
    (fun j members -> List.iter (fun v -> position.(v) <- j) members)
    contexts;
  let bindings =
    Array.map
      (fun j -> if j < 0 then Searchgraph.Sw else Searchgraph.Hw j)
      position
  in
  let binding v = bindings.(v) in
  let is_sw v = position.(v) < 0 in
  let time v =
    if is_sw v then (App.task app v).Task.sw_time
    else (Task.impl (App.task app v) (impl_choice v)).Task.hw_time
  in
  (* A transfer costs only across the HW/SW boundary. *)
  let comm u v =
    if is_sw u <> is_sw v then
      Platform.transfer_time platform (App.kbytes app u v)
    else 0.0
  in
  let rank = List_sched.upward_rank app ~time ~comm in
  let sw_order =
    List_sched.sw_order app ~is_sw ~priority:(fun v -> rank.(v))
  in
  (contexts, sw_order, binding, impl_choice)

let decode app platform individual =
  let contexts, sw_order, binding, impl_choice = plan app platform individual in
  Searchgraph.single_processor_spec ~app ~platform ~binding ~impl_choice
    ~sw_order ~contexts

let solution_of app platform individual =
  let contexts, sw_order, _binding, impl_choice = plan app platform individual in
  let sw_orders =
    sw_order
    :: List.init (Platform.processor_count platform - 1) (fun _ -> [])
  in
  let impl = List.init (App.size app) impl_choice in
  Solution.of_mapping app platform ~sw_orders ~contexts ~impl

let solution_of_exn app platform individual =
  match solution_of app platform individual with
  | Ok s -> s
  | Error msg -> invalid_arg ("Ga.solution_of: " ^ msg)

let fitness app platform individual =
  (* One scored individual = one evaluation, same as Solution.evaluate's
     accounting — keeps fault injection (REPRO_FAULTS=eval:N) able to
     kill a GA run mid-campaign like any other engine. *)
  Repro_util.Fault.tick_eval ();
  match Searchgraph.evaluate (decode app platform individual) with
  | Some eval -> eval.Searchgraph.makespan
  | None -> infinity

let random_individual rng config app =
  let n = App.size app in
  {
    hw = Array.init n (fun _ -> Rng.bool rng);
    impl =
      Array.init n (fun v ->
          if config.explore_impls then
            Rng.int rng (Task.impl_count (App.task app v))
          else 0);
  }

let crossover rng a b =
  (* Uniform crossover, gene by gene. *)
  let n = Array.length a.hw in
  let pick x y = if Rng.bool rng then x else y in
  {
    hw = Array.init n (fun v -> pick a.hw.(v) b.hw.(v));
    impl = Array.init n (fun v -> pick a.impl.(v) b.impl.(v));
  }

let mutate rng config app rate individual =
  let n = Array.length individual.hw in
  for v = 0 to n - 1 do
    if Rng.bernoulli rng rate then individual.hw.(v) <- not individual.hw.(v);
    if config.explore_impls && Rng.bernoulli rng rate then
      individual.impl.(v) <- Rng.int rng (Task.impl_count (App.task app v))
  done

let copy_individual i = { hw = Array.copy i.hw; impl = Array.copy i.impl }

(* Evolution through the generic driver: one iteration = one
   generation; the seed and the budget come from the engine context.
   The elite slots make population.(0) the best ever seen. *)
let evolve config (ctx : Engine.context) =
  if config.population < 2 then invalid_arg "Ga: population < 2";
  if config.elite >= config.population then invalid_arg "Ga: elite too big";
  let app = ctx.Engine.app and platform = ctx.Engine.platform in
  let score individual = fitness app platform individual in
  let by_fitness (fa, _) (fb, _) = Float.compare fa fb in
  let previous_best = ref infinity in
  (* The full scored population crosses the checkpoint: one header
     line per run plus one "ind <fitness> <hw-genes> <impl-genes>"
     line per individual, fitness in %h so the sort order (and hence
     every later tournament) is reproduced bit-exactly. *)
  let codec =
    let name = if config.explore_impls then "ga" else "ga-spatial" in
    {
      Engine.engine = name;
      version = 1;
      encode =
        (fun population ->
          let b = Buffer.create 4096 in
          Printf.bprintf b "ga %d %h\n" config.population !previous_best;
          Array.iter
            (fun (fit, i) ->
              Printf.bprintf b "ind %h " fit;
              Array.iter
                (fun g -> Buffer.add_char b (if g then '1' else '0'))
                i.hw;
              Array.iter (fun g -> Printf.bprintf b " %d" g) i.impl;
              Buffer.add_char b '\n')
            population;
          Buffer.contents b);
      decode =
        (fun text ->
          let ( let* ) = Result.bind in
          let n = App.size app in
          let* header, ind_lines =
            match String.split_on_char '\n' text with
            | header :: rest -> Ok (header, List.filter (( <> ) "") rest)
            | [] -> Error "empty state"
          in
          let* prev =
            match String.split_on_char ' ' header with
            | [ "ga"; pop; prev ] -> (
              match (int_of_string_opt pop, float_of_string_opt prev) with
              | Some p, _ when p <> config.population ->
                Error
                  (Printf.sprintf
                     "taken with population %d — this engine is configured \
                      with %d"
                     p config.population)
              | Some _, Some prev -> Ok prev
              | _ -> Error "bad ga line")
            | _ -> Error "expected a ga line"
          in
          let parse_individual line =
            match String.split_on_char ' ' line with
            | "ind" :: fit :: genes :: impls
              when String.length genes = n && List.length impls = n -> (
              let impl_opt = List.map int_of_string_opt impls in
              match (float_of_string_opt fit, String.for_all (fun c -> c = '0' || c = '1') genes,
                     List.for_all Option.is_some impl_opt) with
              | Some fit, true, true ->
                Ok
                  ( fit,
                    {
                      hw = Array.init n (fun v -> genes.[v] = '1');
                      impl = Array.of_list (List.map Option.get impl_opt);
                    } )
              | _ -> Error "bad ind line"
            )
            | _ -> Error "bad ind line"
          in
          let* individuals =
            List.fold_left
              (fun acc line ->
                let* acc = acc in
                let* i = parse_individual line in
                Ok (i :: acc))
              (Ok []) ind_lines
          in
          if List.length individuals <> config.population then
            Error "wrong number of individuals"
          else begin
            let population = Array.of_list (List.rev individuals) in
            previous_best := prev;
            Ok population
          end);
    }
  in
  Engine.drive ~codec ctx
    ~init:(fun rng ->
      let population =
        Array.init config.population (fun _ ->
            let i = random_individual rng config app in
            (score i, i))
      in
      (* Seed one all-software individual: always feasible, so the
         final best is finite even if every random spatial partition
         decodes to a cyclic search graph. *)
      let n = App.size app in
      let all_sw = { hw = Array.make n false; impl = Array.make n 0 } in
      population.(config.population - 1) <- (score all_sw, all_sw);
      (* A warm start enters the gene pool as one more seeded
         individual (never displacing the all-software safety net),
         so the evolved best can only match or beat the donor. *)
      let warm_evals =
        match ctx.Engine.warm_start with
        | None -> 0
        | Some w ->
          let genome =
            {
              hw =
                Array.init n (fun v ->
                    Solution.binding w v <> Searchgraph.Sw);
              impl = Array.init n (fun v -> Solution.impl_index w v);
            }
          in
          population.(0) <- (score genome, genome);
          1
      in
      Array.sort by_fitness population;
      previous_best := fst population.(0);
      (population, fst population.(0), config.population + 1 + warm_evals))
    ~step:(fun rng ~iteration:_ population ->
      let tournament_pick () =
        let best = ref (Rng.int rng config.population) in
        for _ = 2 to config.tournament do
          let candidate = Rng.int rng config.population in
          if fst population.(candidate) < fst population.(!best) then
            best := candidate
        done;
        snd population.(!best)
      in
      let next =
        Array.init config.population (fun slot ->
            if slot < config.elite then
              let f, i = population.(slot) in
              (f, copy_individual i)
            else begin
              let parent_a = tournament_pick () in
              let child =
                if Rng.bernoulli rng config.crossover_rate then
                  crossover rng parent_a (tournament_pick ())
                else copy_individual parent_a
              in
              mutate rng config app config.mutation_rate child;
              (score child, child)
            end)
      in
      Array.sort by_fitness next;
      Array.blit next 0 population 0 config.population;
      let cost = fst population.(0) in
      let accepted = cost < !previous_best in
      if accepted then previous_best := cost;
      { Engine.state = population; cost; accepted;
        evaluations = config.population - config.elite })
    ~snapshot:(fun population ->
      solution_of_exn app platform (snd population.(0)))

let engine ?(population = default_config.population) ?(explore_impls = true)
    () : Engine.t =
  let config = { default_config with population; explore_impls } in
  (module struct
    let name = if explore_impls then "ga" else "ga-spatial"

    let describe =
      if explore_impls then
        "genetic algorithm over spatial partitioning and implementation \
         selection (Ben Chehida & Auguin, CASES'02)"
      else
        "genetic algorithm over spatial partitioning only, \
         implementation genes frozen at the smallest variant"

    let knobs =
      Printf.sprintf
        "population %d, crossover 0.9, mutation 0.02, tournament 3, \
         elite 2; one iteration = one generation" population

    let default_iterations = 120
    let run ctx = evolve config ctx
  end : Engine.S)
