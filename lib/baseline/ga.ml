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

type individual = Gene_decoder.genes = { hw : bool array; impl : int array }

let decode = Gene_decoder.spec

let solution_of app platform individual =
  let spec = decode app platform individual in
  let sw_orders =
    spec.Searchgraph.sw_order
    :: List.init (Platform.processor_count platform - 1) (fun _ -> [])
  in
  let impl = Array.to_list individual.impl in
  Solution.of_mapping app platform ~sw_orders ~contexts:spec.Searchgraph.contexts
    ~impl

let solution_of_exn app platform individual =
  match solution_of app platform individual with
  | Ok s -> s
  | Error msg -> invalid_arg ("Ga.solution_of: " ^ msg)

let scorer app platform =
  let t = Gene_decoder.tables app platform in
  fun individual ->
    (* One scored individual = one evaluation, same as
       Solution.evaluate's accounting — keeps fault injection
       (REPRO_FAULTS=eval:N) able to kill a GA run mid-campaign like
       any other engine. *)
    Repro_util.Fault.tick_eval ();
    Gene_decoder.makespan t individual

let fitness app platform individual = scorer app platform individual

(* The draw order of the operators below is part of every seeded run:
   the implementation genes draw before the hardware genes, the order
   in which OCaml evaluated the fields of the record literals that once
   built the children (right to left).  Binding the [impl] draws first
   keeps every seeded trajectory and checkpoint as it was. *)
let random_individual rng config app =
  let n = App.size app in
  let impl =
    Array.init n (fun v ->
        if config.explore_impls then
          Rng.int rng (Task.impl_count (App.task app v))
        else 0)
  in
  let hw = Array.init n (fun _ -> Rng.bool rng) in
  { hw; impl }

let crossover rng a b =
  (* Uniform crossover: one coin per gene, from a's gene on heads. *)
  let n = Array.length a.hw in
  let impl = Array.make n 0 in
  Rng.select_into rng a.impl b.impl impl;
  let hw = Array.make n false in
  Rng.select_bools_into rng a.hw b.hw hw;
  { hw; impl }

let mutate rng ~explore_impls app rate individual =
  (* The per-gene loop's draws, walked from hit to hit: a hit on draw
     [per * v] flips task [v]'s hardware gene; with implementation
     genes ([per = 2]), a hit on draw [2v + 1] redraws its
     implementation gene at once, before the walk goes on. *)
  let per = if explore_impls then 2 else 1 in
  let total = per * Array.length individual.hw in
  let k = ref (Rng.first_below rng rate ~from:0 ~until:total) in
  while !k < total do
    let v = !k / per in
    if !k mod per = 0 then individual.hw.(v) <- not individual.hw.(v)
    else
      individual.impl.(v) <- Rng.int rng (Task.impl_count (App.task app v));
    k := Rng.first_below rng rate ~from:(!k + 1) ~until:total
  done

let copy_individual i = { hw = Array.copy i.hw; impl = Array.copy i.impl }

(* Evolution through the generic driver: one iteration = one
   generation; the seed and the budget come from the engine context.
   The elite slots make population.(0) the best ever seen. *)
let evolve ?payload config (ctx : Engine.context) =
  if config.population < 2 then invalid_arg "Ga: population < 2";
  if config.elite >= config.population then invalid_arg "Ga: elite too big";
  let app = ctx.Engine.app and platform = ctx.Engine.platform in
  let score = scorer app platform in
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
              Printf.bprintf b "ind %h %s\n" fit
                (Gene_decoder.genes_to_string i))
            population;
          Buffer.contents b);
      decode =
        (fun text ->
          let ( let* ) = Result.bind in
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
            | "ind" :: fit :: genes -> (
              match
                ( float_of_string_opt fit,
                  Gene_decoder.genes_of_words app.App.tasks genes )
              with
              | Some fit, Some genes -> Ok (fit, genes)
              | _ -> Error "bad ind line")
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
  Engine.drive ?payload ~codec ctx
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
              mutate rng ~explore_impls:config.explore_impls app
                config.mutation_rate child;
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
    let start ?payload ctx = evolve ?payload config ctx
  end : Engine.S)
