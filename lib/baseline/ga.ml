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

(* A run's decode tables: what a chromosome's realization reads but
   its genes do not change, computed once, and the buffers that the
   decode and the makespan pass rewrite for every chromosome.  A
   scoring function owns one set; it is never module-global, since
   portfolio lanes run GA sessions on several domains at once. *)
type tables = {
  app : App.t;
  platform : Platform.t;
  tasks : Task.t array;
  sw_exec : float array;  (* software time on processor 0 *)
  transfer : float array;  (* bus time of each application edge's data *)
  scratch : List_sched.scratch;
  (* Per chromosome, written by [plan]. *)
  area : int array;  (* CLBs asked for in hardware, -1 for software *)
  context : int array;  (* context position, -1 for software *)
  mutable n_contexts : int;
  time : float array;  (* rank weight: software or selected hw time *)
  comm : float array;  (* per edge: [transfer] if it crosses HW/SW *)
  rank : float array;
  order : int array;  (* prioritized topological order, all tasks *)
  (* Per chromosome, written by [makespan]. *)
  ctx_start : int array;  (* context j's members: slice of [ctx_member] *)
  ctx_member : int array;
  ctx_clbs : int array;
  next_sw : int array;  (* software chain successor, -1 at the end *)
  indegree : int array;  (* tasks, then configuration nodes *)
  start : float array;
  ready : int array;  (* Kahn's stack of nodes whose predecessors ran *)
  mutable top : int;
}

let tables app platform =
  let n = App.size app in
  let speed = Platform.processor_speed platform 0 in
  let tasks = app.App.tasks in
  {
    app;
    platform;
    tasks;
    sw_exec = Array.map (fun task -> task.Task.sw_time /. speed) tasks;
    transfer =
      Array.init (App.edge_count app) (fun i ->
          Platform.transfer_time platform (App.edge app i).App.kbytes);
    scratch = List_sched.scratch n;
    area = Array.make n (-1);
    context = Array.make n (-1);
    n_contexts = 0;
    time = Array.make n 0.0;
    comm = Array.make (App.edge_count app) 0.0;
    rank = Array.make n 0.0;
    order = Array.make n 0;
    ctx_start = Array.make (n + 1) 0;  (* [ctx_start.(0)] stays 0 *)
    ctx_member = Array.make n 0;
    ctx_clbs = Array.make n 0;
    next_sw = Array.make n (-1);
    indegree = Array.make (2 * n) 0;
    start = Array.make (2 * n) 0.0;
    ready = Array.make (2 * n) 0;
    top = 0;
  }

let selected t individual v = t.tasks.(v).Task.impls.(individual.impl.(v))

(* The deterministic realization of a chromosome, the single planner
   behind [decode], [solution_of] and [fitness]: temporal partitioning
   by clustering (a hardware gene whose implementation cannot fit the
   device stays in software), then the software order by list
   scheduling on upward ranks.  Fills [t]'s per-chromosome buffers. *)
let plan t individual =
  let n = App.size t.app in
  for v = 0 to n - 1 do
    t.area.(v) <-
      (if individual.hw.(v) then (selected t individual v).Task.clbs else -1)
  done;
  t.n_contexts <-
    Clustering.contexts t.app ~limit:(Platform.n_clb t.platform) ~area:t.area
      ~context:t.context;
  for v = 0 to n - 1 do
    t.time.(v) <-
      (if t.context.(v) < 0 then t.tasks.(v).Task.sw_time
       else (selected t individual v).Task.hw_time)
  done;
  (* A transfer costs only across the HW/SW boundary. *)
  let outs = App.out_edges t.app in
  for v = 0 to n - 1 do
    for k = outs.start.(v) to outs.start.(v + 1) - 1 do
      let e = outs.edge.(k) in
      t.comm.(e) <-
        (if t.context.(v) < 0 <> (t.context.(outs.node.(k)) < 0) then
           t.transfer.(e)
         else 0.0)
    done
  done;
  List_sched.upward_rank t.app ~time:t.time ~comm:t.comm ~rank:t.rank;
  List_sched.prioritized_topological_order t.scratch t.app ~priority:t.rank
    ~order:t.order

(* [plan]'s result as lists, for the spec and Solution builders. *)
let planned app platform individual =
  let t = tables app platform in
  plan t individual;
  let context = t.context in
  let sw_order =
    Array.fold_right
      (fun v acc -> if context.(v) < 0 then v :: acc else acc)
      t.order []
  in
  (context, Clustering.members app ~context t.n_contexts, sw_order)

let decode app platform individual =
  let context, contexts, sw_order = planned app platform individual in
  let bindings =
    Array.map
      (fun j -> if j < 0 then Searchgraph.Sw else Searchgraph.Hw j)
      context
  in
  Searchgraph.single_processor_spec ~app ~platform
    ~binding:(fun v -> bindings.(v))
    ~impl_choice:(fun v -> individual.impl.(v))
    ~sw_order ~contexts

let solution_of app platform individual =
  let _context, contexts, sw_order = planned app platform individual in
  let sw_orders =
    sw_order
    :: List.init (Platform.processor_count platform - 1) (fun _ -> [])
  in
  let impl = Array.to_list individual.impl in
  Solution.of_mapping app platform ~sw_orders ~contexts ~impl

let solution_of_exn app platform individual =
  match solution_of app platform individual with
  | Ok s -> s
  | Error msg -> invalid_arg ("Ga.solution_of: " ^ msg)

let push_ready t x =
  t.ready.(t.top) <- x;
  t.top <- t.top + 1
[@@inline]

(* An edge into [y] from a node that finished at [f]. *)
let relax t y f =
  t.start.(y) <- Float.max t.start.(y) f;
  t.indegree.(y) <- t.indegree.(y) - 1;
  if t.indegree.(y) = 0 then push_ready t y
[@@inline]

(* Makespan of the planned chromosome: one Kahn pass over the search
   graph that [decode] would build, kept implicit.  Node [v < n] is a
   task, node [n + j] context [j]'s configuration.  The edges are the
   application's (weighted by [comm]), each software task's chain
   successor, and per context j its configuration before each member,
   each member before the next configuration, and the configuration
   before the next.  A node's start is the max over its in-edges of
   (predecessor finish + edge weight), and [Float.max] is exact, so
   visiting the nodes in any topological order gives the bits of
   [Searchgraph.evaluate].  A pass that cannot finish every node met a
   cycle: [infinity]. *)
let makespan t =
  let n = App.size t.app and nc = t.n_contexts in
  let context = t.context and indegree = t.indegree and start = t.start in
  let ctx_start = t.ctx_start and ctx_member = t.ctx_member in
  (* Contexts as slices of [ctx_member]: clustering numbers them along
     the topological order, so each context's members are consecutive
     there. *)
  let topo = App.topo t.app and members = ref 0 in
  Array.fill t.ctx_clbs 0 nc 0;
  for i = 0 to n - 1 do
    let v = topo.(i) in
    let j = context.(v) in
    if j >= 0 then begin
      ctx_member.(!members) <- v;
      incr members;
      ctx_start.(j + 1) <- !members;
      t.ctx_clbs.(j) <- t.ctx_clbs.(j) + t.area.(v)
    end
  done;
  (* In-degrees: application edges, the chain predecessor or the
     context's configuration, and for configuration j > 0 the previous
     configuration and the previous context's members. *)
  let ins = App.in_edges t.app in
  for v = 0 to n - 1 do
    indegree.(v) <-
      ins.start.(v + 1) - ins.start.(v) + if context.(v) >= 0 then 1 else 0
  done;
  let last = ref (-1) in
  for i = 0 to n - 1 do
    let v = t.order.(i) in
    if context.(v) < 0 then begin
      if !last >= 0 then begin
        t.next_sw.(!last) <- v;
        indegree.(v) <- indegree.(v) + 1
      end;
      last := v
    end
  done;
  if !last >= 0 then t.next_sw.(!last) <- -1;
  for j = 0 to nc - 1 do
    indegree.(n + j) <-
      (if j = 0 then 0 else 1 + ctx_start.(j) - ctx_start.(j - 1))
  done;
  let total = n + nc in
  Array.fill start 0 total 0.0;
  t.top <- 0;
  for x = 0 to total - 1 do
    if indegree.(x) = 0 then push_ready t x
  done;
  let outs = App.out_edges t.app in
  let finished = ref 0 and makespan = ref 0.0 in
  while t.top > 0 do
    t.top <- t.top - 1;
    let x = t.ready.(t.top) in
    incr finished;
    if x < n then begin
      let j = context.(x) in
      let f = start.(x) +. if j < 0 then t.sw_exec.(x) else t.time.(x) in
      makespan := Float.max !makespan f;
      for k = outs.start.(x) to outs.start.(x + 1) - 1 do
        relax t outs.node.(k) (f +. t.comm.(outs.edge.(k)))
      done;
      if j < 0 then begin
        if t.next_sw.(x) >= 0 then relax t t.next_sw.(x) f
      end
      else if j + 1 < nc then relax t (n + j + 1) f
    end
    else begin
      let j = x - n in
      let f =
        start.(x)
        +. Platform.reconfiguration_time t.platform t.ctx_clbs.(j)
      in
      makespan := Float.max !makespan f;
      for k = ctx_start.(j) to ctx_start.(j + 1) - 1 do
        relax t ctx_member.(k) f
      done;
      if j + 1 < nc then relax t (x + 1) f
    end
  done;
  if !finished < total then infinity else !makespan

let score t individual =
  (* One scored individual = one evaluation, same as Solution.evaluate's
     accounting — keeps fault injection (REPRO_FAULTS=eval:N) able to
     kill a GA run mid-campaign like any other engine. *)
  Repro_util.Fault.tick_eval ();
  plan t individual;
  makespan t

let scorer app platform = score (tables app platform)

let fitness app platform individual = scorer app platform individual

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
    let start ?payload ctx = evolve ?payload config ctx
  end : Engine.S)
