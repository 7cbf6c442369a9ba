(* Benchmark harness: one experiment per table/figure of the paper's
   evaluation (§5), plus the ablations called out in DESIGN.md.
   Per-layer timing lives in perfbench/, not here.

     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- fig3 space   # a selection
     BENCH_RUNS=100 dune exec bench/main.exe -- fig3   # paper-scale

   Each experiment also writes a machine-readable BENCH_<name>.json
   ({"experiment", "wall_seconds", "metrics": {...}}) to the working
   directory, so runs can be tracked and compared without scraping the
   tables.  Iteration budgets come from BENCH_* environment knobs (see
   the env_int calls below); BENCH_JOBS sets the domain count for the
   parallel grids.

   Paper anchors are printed next to each measured series; we reproduce
   the *shape* (who wins, where the minima/plateaus fall), not the
   authors' absolute testbed numbers. *)

module Md = Repro_workloads.Motion_detection
module Suite_w = Repro_workloads.Suite
module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Moves = Repro_dse.Moves
module Trace = Repro_dse.Trace
module Combinatorics = Repro_dse.Combinatorics
module Searchgraph = Repro_sched.Searchgraph
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module Ga = Repro_baseline.Ga
module Greedy = Repro_baseline.Greedy
module Random_search = Repro_baseline.Random_search
module Hill_climb = Repro_baseline.Hill_climb
module Tabu = Repro_baseline.Tabu
module Engine = Repro_dse.Engine
module Portfolio = Repro_dse.Portfolio
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Rng = Repro_util.Rng
module Parallel = Repro_util.Parallel
module Clock = Repro_util.Clock
module App = Repro_taskgraph.App

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> (try int_of_string v with Failure _ -> default)
  | None -> default

let runs_per_point = env_int "BENCH_RUNS" 5
let iters_per_run = env_int "BENCH_ITERS" 6_000
let fig2_iters = env_int "BENCH_FIG2_ITERS" 50_000
let compare_iters = env_int "BENCH_COMPARE_ITERS" 50_000
let ga_generations = env_int "BENCH_GA_GENERATIONS" 120
let ga_population = env_int "BENCH_GA_POPULATION" 300
let random_samples = env_int "BENCH_RANDOM_SAMPLES" 5_000
let hill_moves = env_int "BENCH_HILL_MOVES" 10_000
let tabu_iters = env_int "BENCH_TABU_ITERS" 2_000
let bench_jobs = env_int "BENCH_JOBS" (Parallel.default_jobs ())

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* [iterations] cooling moves after the paper's 1200 warmup ones, at
   Lam quality 150/iterations: the recipe of the tables recorded in
   EXPERIMENTS.md, passed explicitly so they stay reproducible. *)
let lam_for iterations =
  Schedule.lam ~quality:(150.0 /. float_of_int iterations) ()

let anneal_config ?(schedule_for = lam_for) ~iterations ~seed () =
  Annealer.for_budget ~seed ~warmup:1_200 ~schedule:(schedule_for iterations)
    (iterations + 1_200)

let explore_once ?trace ?(moves = Moves.fixed_architecture) ~iterations ~seed
    app platform =
  let config =
    { Explorer.anneal = anneal_config ~iterations ~seed (); moves;
      objective = Explorer.Makespan }
  in
  Explorer.explore ?trace config app platform

(* ------------------------------------------------------------------ *)
(* Fig. 2: evolution of execution time and number of contexts along a
   typical run (2000 CLBs).                                            *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "Fig. 2 — execution time and number of contexts vs iteration";
  Printf.printf
    "paper: warmup spans ~35-70 ms and 1-8 contexts; cooling drops below the\n\
     40 ms constraint and freezes at 18.1 ms with 3 contexts (2000 CLBs).\n\n";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let trace = Trace.create () in
  let result = explore_once ~trace ~iterations:fig2_iters ~seed:5 app platform in
  let entries = Trace.entries trace in
  let warmup = List.filter (fun e -> e.Trace.iteration < 0) entries in
  let warmup_costs = List.map (fun e -> e.Trace.cost) warmup in
  let warmup_ctx = List.map (fun e -> float_of_int e.Trace.n_contexts) warmup in
  Printf.printf
    "warmup (infinite temperature): exec time %.1f..%.1f ms, contexts %.0f..%.0f\n"
    (List.fold_left Float.min infinity warmup_costs)
    (List.fold_left Float.max 0.0 warmup_costs)
    (List.fold_left Float.min infinity warmup_ctx)
    (List.fold_left Float.max 0.0 warmup_ctx);
  let table =
    Table.create
      [ ("iteration", Table.Right); ("exec ms", Table.Right);
        ("best ms", Table.Right); ("contexts", Table.Right);
        ("temperature", Table.Right) ]
  in
  List.iter
    (fun e ->
      Table.add_row table
        [
          Table.cell_int e.Trace.iteration;
          Table.cell_float e.Trace.cost;
          Table.cell_float e.Trace.best;
          Table.cell_int e.Trace.n_contexts;
          (if e.Trace.temperature = infinity then "inf"
           else Table.cell_float ~decimals:4 e.Trace.temperature);
        ])
    (Trace.downsample trace ~max_points:24);
  print_string (Table.render table);
  (* The figure itself: execution time [*] and context count [o],
     rescaled x5 like the paper's second axis) vs iteration. *)
  let sampled = Trace.downsample trace ~max_points:400 in
  let exec_series =
    List.map (fun e -> (float_of_int e.Trace.iteration, e.Trace.cost)) sampled
  in
  let context_series =
    List.map
      (fun e ->
        (float_of_int e.Trace.iteration, 5.0 *. float_of_int e.Trace.n_contexts))
      sampled
  in
  print_newline ();
  print_string
    (Repro_util.Ascii_chart.render ~width:72 ~height:14
       ~x_label:"iteration" ~y_label:"exec time ms (*) / 5 x contexts (o)"
       [
         { Repro_util.Ascii_chart.marker = 'o'; points = context_series };
         { Repro_util.Ascii_chart.marker = '*'; points = exec_series };
       ]);
  let eval = result.Explorer.best_eval in
  Printf.printf
    "final: %.1f ms with %d context(s) [paper: 18.1 ms, 3 contexts]; \
     constraint 40 ms %s\n"
    result.Explorer.best_cost eval.Searchgraph.n_contexts
    (if Explorer.meets_deadline app eval then "MET" else "MISSED");
  [
    ("best_cost_ms", result.Explorer.best_cost);
    ("contexts", float_of_int eval.Searchgraph.n_contexts);
    ("iterations_per_second",
     float_of_int result.Explorer.iterations_run
     /. Float.max result.Explorer.wall_seconds 1e-9);
    ("deadline_met", if Explorer.meets_deadline app eval then 1.0 else 0.0);
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 3: execution time, reconfiguration times and number of
   contexts vs FPGA size, averaged over several runs.                  *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Fig. 3 — execution/reconfiguration time and contexts vs FPGA size";
  Printf.printf
    "paper (100 runs/point): sharp drop once a context holds several tasks,\n\
     minimum near 800 CLBs, slow growth to a plateau around 5000 CLBs where a\n\
     single context holds every hardware task; up to ~10 contexts for small\n\
     devices; total reconfiguration time roughly constant.\n\
     this run: %d run(s)/point, %d iterations (BENCH_RUNS/BENCH_ITERS),\n\
     %d job(s) (BENCH_JOBS).\n\n"
    runs_per_point iters_per_run bench_jobs;
  let app = Md.app () in
  let exec_by_index = ref [] in
  let reconfig_by_index = ref [] in
  let table =
    Table.create
      [ ("CLBs", Table.Right); ("exec ms", Table.Right); ("±", Table.Right);
        ("init rcfg", Table.Right); ("dyn rcfg", Table.Right);
        ("total rcfg", Table.Right); ("contexts", Table.Right);
        ("40ms met", Table.Right) ]
  in
  (* The (size x run) grid runs on BENCH_JOBS domains; each cell's seed
     depends only on its coordinates, and cells are folded per size in
     run order, so the table is identical for any job count. *)
  let sizes = Array.of_list Md.fig3_sizes in
  let cells =
    Parallel.map_outcomes ~jobs:bench_jobs
      (Array.length sizes * runs_per_point)
      (fun i ~stop:_ ->
        let n_clb = sizes.(i / runs_per_point) in
        let run = i mod runs_per_point in
        let platform = Md.platform ~n_clb () in
        let result =
          explore_once ~iterations:iters_per_run
            ~seed:(1 + (run * 7919) + n_clb)
            app platform
        in
        let eval = result.Explorer.best_eval in
        ( eval.Searchgraph.makespan, eval.Searchgraph.initial_reconfig,
          eval.Searchgraph.dynamic_reconfig, eval.Searchgraph.n_contexts,
          Explorer.meets_deadline app eval ))
    |> Array.map (function
         | Parallel.Done cell -> cell
         | outcome ->
           failwith
             (Printf.sprintf "fig3: a grid cell %s"
                (Parallel.outcome_name outcome)))
  in
  let min_mean_exec = ref infinity in
  Array.iteri
    (fun size_index n_clb ->
      let exec = Stats.Running.create () in
      let init_r = Stats.Running.create () in
      let dyn_r = Stats.Running.create () in
      let ctx = Stats.Running.create () in
      let met = ref 0 in
      for run = 0 to runs_per_point - 1 do
        let makespan, init, dyn, n_contexts, meets =
          cells.((size_index * runs_per_point) + run)
        in
        Stats.Running.add exec makespan;
        Stats.Running.add init_r init;
        Stats.Running.add dyn_r dyn;
        Stats.Running.add ctx (float_of_int n_contexts);
        if meets then incr met
      done;
      min_mean_exec := Float.min !min_mean_exec (Stats.Running.mean exec);
      exec_by_index :=
        (float_of_int size_index, Stats.Running.mean exec) :: !exec_by_index;
      reconfig_by_index :=
        ( float_of_int size_index,
          Stats.Running.mean init_r +. Stats.Running.mean dyn_r )
        :: !reconfig_by_index;
      Table.add_row table
        [
          Table.cell_int n_clb;
          Table.cell_float (Stats.Running.mean exec);
          Table.cell_float (Stats.Running.stddev exec);
          Table.cell_float (Stats.Running.mean init_r);
          Table.cell_float (Stats.Running.mean dyn_r);
          Table.cell_float
            (Stats.Running.mean init_r +. Stats.Running.mean dyn_r);
          Table.cell_float ~decimals:1 (Stats.Running.mean ctx);
          Printf.sprintf "%d/%d" !met runs_per_point;
        ])
    sizes;
  print_string (Table.render table);
  (* Figure view: exec time [*] and total reconfiguration time [#]
     against the device-size index (the paper's x axis is effectively
     log-spaced). *)
  print_newline ();
  print_string
    (Repro_util.Ascii_chart.render ~width:72 ~height:12
       ~x_label:"device size index (100 .. 10000 CLBs)"
       ~y_label:"exec time ms (*) / total reconfiguration ms (#)"
       [
         { Repro_util.Ascii_chart.marker = '#';
           points = List.rev !reconfig_by_index };
         { Repro_util.Ascii_chart.marker = '*'; points = List.rev !exec_by_index };
       ]);
  [
    ("min_mean_exec_ms", !min_mean_exec);
    ("sizes", float_of_int (Array.length sizes));
    ("runs_per_point", float_of_int runs_per_point);
    ("jobs", float_of_int bench_jobs);
  ]

(* ------------------------------------------------------------------ *)
(* §5 comparison: adaptive SA vs the GA of [6] and extra baselines.    *)
(* ------------------------------------------------------------------ *)

let compare_methods () =
  header "§5 comparison — adaptive SA vs GA [6] and baselines (2000 CLBs)";
  Printf.printf
    "paper: SA best 18.1 ms in <10 s; GA of [6] 28 ms in ~4 min (population\n\
     300).  Two GA variants: with implementation-selection genes (stronger\n\
     than [6]'s published tool) and with spatial genes only, as [6]\n\
     describes — the latter reproduces the paper's SA-over-GA quality gap.\n\n";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let table =
    Table.create
      [ ("method", Table.Left); ("makespan ms", Table.Right);
        ("contexts", Table.Right); ("time s", Table.Right);
        ("40 ms", Table.Left) ]
  in
  let row name makespan contexts seconds =
    Table.add_row table
      [
        name; Table.cell_float makespan; contexts;
        Table.cell_float ~decimals:2 seconds;
        (if makespan <= Md.deadline_ms then "met" else "missed");
      ]
  in
  row "all-software" (App.total_sw_time app) "0" 0.0;
  let sa = explore_once ~iterations:compare_iters ~seed:1 app platform in
  row "adaptive SA (this paper)" sa.Explorer.best_cost
    (string_of_int sa.Explorer.best_eval.Searchgraph.n_contexts)
    sa.Explorer.wall_seconds;
  (* Every other method runs through the engine contract, seed 1. *)
  let run engine iterations =
    Engine.run engine (Engine.context ~app ~platform ~seed:1 ~iterations ())
  in
  let engine_row ?(contexts = false) name (o : Engine.outcome) =
    row name o.Engine.best_cost
      (if contexts then string_of_int (Solution.n_contexts o.Engine.best)
       else "-")
      o.Engine.wall_seconds
  in
  let ga = run (Ga.engine ~population:ga_population ()) ga_generations in
  engine_row ~contexts:true
    (Printf.sprintf "GA after [6] (pop %d)" ga_population)
    ga;
  engine_row ~contexts:true "GA, spatial genes only (as [6])"
    (run
       (Ga.engine ~population:ga_population ~explore_impls:false ())
       ga_generations);
  engine_row ~contexts:true "greedy compute-to-HW" (run Greedy.engine 11);
  engine_row
    (Printf.sprintf "random search (%d samples)" random_samples)
    (run Random_search.engine random_samples);
  engine_row "hill climbing (5 restarts)"
    (run (Hill_climb.engine_with ~moves_per_climb:hill_moves ())
       (5 * hill_moves));
  engine_row "tabu search (tenure 20)" (run Tabu.engine tabu_iters);
  Repro_baseline.Engines.register_all ();
  let portfolio =
    match Portfolio.of_spec "portfolio:race:sa+tabu" with
    | Ok engine -> run engine compare_iters
    | Error msg -> failwith msg
  in
  engine_row "racing portfolio (sa+tabu)" portfolio;
  print_string (Table.render table);
  [
    ("sa_best_ms", sa.Explorer.best_cost);
    ("sa_seconds", sa.Explorer.wall_seconds);
    ("ga_best_ms", ga.Engine.best_cost);
    ("ga_seconds", ga.Engine.wall_seconds);
    ("portfolio_best_ms", portfolio.Engine.best_cost);
    ("portfolio_seconds", portfolio.Engine.wall_seconds);
    ("iterations_per_second",
     float_of_int sa.Explorer.iterations_run
     /. Float.max sa.Explorer.wall_seconds 1e-9);
  ]

(* ------------------------------------------------------------------ *)
(* §5 solution-space counts.                                           *)
(* ------------------------------------------------------------------ *)

let space () =
  header "§5 solution-space counts (exact reproduction)";
  let table =
    Table.create
      [ ("quantity", Table.Left); ("measured", Table.Right);
        ("paper", Table.Right) ]
  in
  let row label measured paper =
    Table.add_row table [ label; string_of_int measured; string_of_int paper ]
  in
  row "28-chain, 2 context changes"
    (Combinatorics.context_change_combinations ~nodes:28 ~changes:2)
    378;
  row "28-chain, 6 context changes"
    (Combinatorics.context_change_combinations ~nodes:28 ~changes:6)
    376_740;
  row "total orders, first 20 nodes" (Combinatorics.interleavings [ 7; 6 ]) 1716;
  row "total orders, 28 nodes"
    (Combinatorics.motion_detection_total_orders ())
    348_840;
  row "combinations, 2 changes"
    (Combinatorics.motion_detection_combinations ~changes:2)
    131_861_520;
  row "combinations, 4 changes"
    (Combinatorics.motion_detection_combinations ~changes:4)
    7_142_499_000;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Ablation: cooling schedules at an equal iteration budget.           *)
(* ------------------------------------------------------------------ *)

let ablation_schedule () =
  header "Ablation — cooling schedule (equal budget, motion detection)";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let iterations = iters_per_run in
  let schedules =
    [
      ("lam (adaptive, the paper's)", lam_for);
      ("swartz (feedback target)", fun _ -> Schedule.swartz ());
      ("geometric 0.95/100", fun _ -> Schedule.geometric ());
      ("infinite (random walk)", fun _ -> Schedule.infinite ());
    ]
  in
  let table =
    Table.create
      [ ("schedule", Table.Left); ("mean ms", Table.Right); ("±", Table.Right);
        ("best ms", Table.Right) ]
  in
  List.iter
    (fun (name, schedule_for) ->
      let stats = Stats.Running.create () in
      for run = 0 to runs_per_point - 1 do
        let config =
          {
            Explorer.anneal =
              anneal_config ~schedule_for ~iterations ~seed:(100 + run) ();
            moves = Moves.fixed_architecture;
            objective = Explorer.Makespan;
          }
        in
        let result = Explorer.explore config app platform in
        Stats.Running.add stats result.Explorer.best_cost
      done;
      Table.add_row table
        [
          name;
          Table.cell_float (Stats.Running.mean stats);
          Table.cell_float (Stats.Running.stddev stats);
          Table.cell_float (Stats.Running.min stats);
        ])
    schedules;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Ablation: move families.                                            *)
(* ------------------------------------------------------------------ *)

let ablation_moves () =
  header "Ablation — move families (equal budget, motion detection)";
  Printf.printf
    "spatial-only disables implementation selection and the explicit\n\
     context-management moves, leaving m1/m2 (plus the ergodicity escape).\n\n";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let variants =
    [
      ("full move set (paper)", Moves.fixed_architecture);
      ("spatial only (no impl/context moves)", Moves.spatial_only);
      ("no implementation move",
       { Moves.fixed_architecture with Moves.p_impl = 0.0 });
      ("no context moves",
       { Moves.fixed_architecture with Moves.p_new_context = 0.0;
         p_swap_contexts = 0.0 });
    ]
  in
  let table =
    Table.create
      [ ("moves", Table.Left); ("mean ms", Table.Right); ("±", Table.Right);
        ("best ms", Table.Right) ]
  in
  List.iter
    (fun (name, moves) ->
      let stats = Stats.Running.create () in
      for run = 0 to runs_per_point - 1 do
        let result =
          explore_once ~moves ~iterations:iters_per_run ~seed:(200 + run) app
            platform
        in
        Stats.Running.add stats result.Explorer.best_cost
      done;
      Table.add_row table
        [
          name;
          Table.cell_float (Stats.Running.mean stats);
          Table.cell_float (Stats.Running.stddev stats);
          Table.cell_float (Stats.Running.min stats);
        ])
    variants;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Wider evaluation: the auxiliary workload suite.                     *)
(* ------------------------------------------------------------------ *)

let suite_eval () =
  header "Wider evaluation — auxiliary workloads";
  let table =
    Table.create
      [ ("application", Table.Left); ("tasks", Table.Right);
        ("all-SW ms", Table.Right); ("explored ms", Table.Right);
        ("min period ms", Table.Right); ("contexts", Table.Right);
        ("deadline", Table.Left) ]
  in
  List.iter
    (fun (name, make) ->
      let app = make () in
      let platform =
        if name = "motion_detection" then Md.platform ()
        else Suite_w.platform_for app
      in
      let result = explore_once ~iterations:iters_per_run ~seed:11 app platform in
      let eval = result.Explorer.best_eval in
      let periodic =
        Repro_sched.Periodic.analyze (Solution.spec result.Explorer.best)
      in
      Table.add_row table
        [
          name;
          Table.cell_int (App.size app);
          Table.cell_float (App.total_sw_time app);
          Table.cell_float result.Explorer.best_cost;
          Table.cell_float periodic.Repro_sched.Periodic.min_initiation_interval;
          Table.cell_int eval.Searchgraph.n_contexts;
          (match app.App.deadline with
           | Some d ->
             Printf.sprintf "%.0f ms %s" d
               (if Explorer.meets_deadline app eval then "met" else "missed")
           | None -> "none");
        ])
    Suite_w.named;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Robustness: exploration quality vs application size on random graph
   families (beyond the paper: tool-scaling study).                    *)
(* ------------------------------------------------------------------ *)

let scaling () =
  header "Scaling — exploration quality vs application size (random graphs)";
  Printf.printf
    "speedup = all-software time / explored makespan; the idealized upper\n\
     bound ignores reconfiguration and communication entirely.\n\n";
  let table =
    Table.create
      [ ("family", Table.Left); ("tasks", Table.Right);
        ("all-SW ms", Table.Right); ("explored ms", Table.Right);
        ("speedup", Table.Right); ("bound", Table.Right);
        ("seconds", Table.Right) ]
  in
  let model = Repro_taskgraph.Generators.default_impl_model in
  let families =
    [
      ("chain 20", fun rng ->
        Repro_taskgraph.Generators.chain rng model ~length:20 ~mean_sw_time:2.0
          ~mean_kbytes:8.0);
      ("chain 60", fun rng ->
        Repro_taskgraph.Generators.chain rng model ~length:60 ~mean_sw_time:2.0
          ~mean_kbytes:8.0);
      ("layered 6x4", fun rng ->
        Repro_taskgraph.Generators.layered rng model ~layers:6 ~width:4
          ~edge_probability:0.4 ~mean_sw_time:2.0 ~mean_kbytes:8.0);
      ("layered 10x6", fun rng ->
        Repro_taskgraph.Generators.layered rng model ~layers:10 ~width:6
          ~edge_probability:0.3 ~mean_sw_time:2.0 ~mean_kbytes:8.0);
      ("series-parallel d5", fun rng ->
        Repro_taskgraph.Generators.series_parallel rng model ~depth:5
          ~mean_sw_time:2.0 ~mean_kbytes:8.0);
    ]
  in
  List.iter
    (fun (name, make) ->
      let rng = Rng.create 42 in
      let app = make rng in
      let platform = Suite_w.platform_for app in
      let result = explore_once ~iterations:iters_per_run ~seed:42 app platform in
      let all_sw = App.total_sw_time app in
      let bound =
        all_sw
        /. Float.max (App.hw_critical_path app) 1e-9
      in
      Table.add_row table
        [
          name;
          Table.cell_int (App.size app);
          Table.cell_float all_sw;
          Table.cell_float result.Explorer.best_cost;
          Table.cell_float (all_sw /. result.Explorer.best_cost);
          Table.cell_float bound;
          Table.cell_float ~decimals:2 result.Explorer.wall_seconds;
        ])
    families;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Ablation: tabu tenure sensitivity (the paper's argument that tabu
   search needs tuning where the adaptive schedule does not).          *)
(* ------------------------------------------------------------------ *)

let ablation_tabu () =
  header "Ablation — tabu-search tenure sensitivity";
  Printf.printf
    "the paper contrasts its tuning-free adaptive schedule with tabu\n\
     search's tabu-list-size tuning; the sweep shows that sensitivity.\n\n";
  let app = Md.app () in
  (* A small device makes the landscape rugged enough for the tabu
     memory to matter. *)
  let platform = Md.platform ~n_clb:200 () in
  let table =
    Table.create
      [ ("tenure", Table.Right); ("mean ms", Table.Right); ("±", Table.Right) ]
  in
  List.iter
    (fun tenure ->
      (* Each tenure point is its own engine instance, run through the
         uniform contract — the same driver every other comparison
         uses. *)
      let engine = Tabu.engine_with ~tenure () in
      let stats = Stats.Running.create () in
      for run = 0 to runs_per_point - 1 do
        let ctx =
          Engine.context ~app ~platform ~seed:(300 + run)
            ~iterations:(tabu_iters / 2) ()
        in
        let outcome = Engine.run engine ctx in
        Stats.Running.add stats outcome.Engine.best_cost
      done;
      Table.add_row table
        [
          Table.cell_int tenure;
          Table.cell_float (Stats.Running.mean stats);
          Table.cell_float (Stats.Running.stddev stats);
        ])
    [ 1; 5; 20; 100; 500 ];
  print_string (Table.render table);
  Printf.printf
    "finding: with a sampled best-of-N neighbourhood and state-hash tabu,\n\
     this instance is robust to the tenure — the paper's tuning concern\n\
     applies to attribute-based tabu on harder landscapes; quality-wise\n\
     tabu matches the SA here (see compare).\n";
  []

(* ------------------------------------------------------------------ *)
(* Ablation: communication model — edge delays vs serialized bus
   transactions (§3.3's ordered transactions made explicit).           *)
(* ------------------------------------------------------------------ *)

let ablation_bus () =
  header "Ablation — bus model (edge delays vs serialized transactions)";
  Printf.printf
    "each row optimizes under one model and reports the solution under both;\n\
     the serialized model charges contention between concurrent transfers.\n\n";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let table =
    Table.create
      [ ("optimized under", Table.Left); ("edge-delay ms", Table.Right);
        ("serialized ms", Table.Right); ("crossings", Table.Right) ]
  in
  let crossings solution =
    let spec = Solution.spec solution in
    List.length
      (List.filter
         (fun { App.src; dst; kbytes = _ } ->
           match (spec.Searchgraph.binding src, spec.Searchgraph.binding dst)
           with
           | Searchgraph.Sw, Searchgraph.Hw _ | Searchgraph.Hw _, Searchgraph.Sw
             ->
             true
           | Searchgraph.Sw, Searchgraph.Sw | Searchgraph.Hw _, Searchgraph.Hw _
           | Searchgraph.On_asic _, _ | _, Searchgraph.On_asic _
             ->
             false)
         (App.edges app))
  in
  let both solution =
    let spec = Solution.spec solution in
    let simple =
      match Searchgraph.evaluate spec with
      | Some e -> e.Searchgraph.makespan
      | None -> nan
    in
    let serialized =
      match Searchgraph.evaluate_serialized spec with
      | Some e -> e.Searchgraph.makespan
      | None -> nan
    in
    (simple, serialized)
  in
  List.iter
    (fun (name, objective) ->
      let config =
        { Explorer.anneal = anneal_config ~iterations:iters_per_run ~seed:3 ();
          moves = Moves.fixed_architecture; objective }
      in
      let result = Explorer.explore config app platform in
      let simple, serialized = both result.Explorer.best in
      Table.add_row table
        [
          name;
          Table.cell_float simple;
          Table.cell_float serialized;
          Table.cell_int (crossings result.Explorer.best);
        ])
    [
      ("edge delays (paper's estimate)", Explorer.Makespan);
      ("serialized transactions", Explorer.Makespan_serialized);
    ];
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Cost/performance frontier over the device catalogue (the paper's
   cost-minimization story as a designer-facing output).               *)
(* ------------------------------------------------------------------ *)

let pareto () =
  header "Cost/performance frontier — which device should a designer buy?";
  Printf.printf
    "the paper determines \"the size of the smallest device for which the\n\
     40 ms constraint is attained\" as a byproduct of Fig. 3; the frontier\n\
     makes the full cost/performance trade explicit.\n\n";
  let app = Md.app () in
  let catalogue = List.map (fun n_clb -> Md.platform ~n_clb ()) Md.fig3_sizes in
  (* The registered sa at its fixed 0.003, as when the EXPERIMENTS.md
     table was recorded. *)
  let engine =
    Explorer.annealer
      { (Explorer.sa_config iters_per_run) with
        anneal =
          Annealer.for_budget ~schedule:(Schedule.lam ~quality:0.003 ())
            iters_per_run }
  in
  let frontier =
    (Explorer.cost_performance_frontier ~seed:1 ~iterations:iters_per_run
       ~jobs:bench_jobs ~engine app catalogue)
      .Explorer.frontier
  in
  let table =
    Table.create
      [ ("CLBs", Table.Right); ("cost", Table.Right);
        ("makespan ms", Table.Right); ("contexts", Table.Right);
        ("40 ms", Table.Left) ]
  in
  List.iter
    (fun { Explorer.platform; eval; cost; meets } ->
      Table.add_row table
        [
          Table.cell_int (Repro_arch.Platform.n_clb platform);
          Table.cell_float cost;
          Table.cell_float eval.Searchgraph.makespan;
          Table.cell_int eval.Searchgraph.n_contexts;
          (if meets then "met" else "missed");
        ])
    frontier;
  print_string (Table.render table);
  (match List.find_opt (fun p -> p.Explorer.meets) frontier with
   | Some cheapest ->
     Printf.printf "smallest device meeting 40 ms at this budget: %d CLBs\n"
       (Repro_arch.Platform.n_clb cheapest.Explorer.platform);
     [
       ("frontier_points", float_of_int (List.length frontier));
       ("smallest_meeting_clbs",
        float_of_int (Repro_arch.Platform.n_clb cheapest.Explorer.platform));
     ]
   | None ->
     Printf.printf "no catalogue device meets 40 ms at this budget\n";
     [ ("frontier_points", float_of_int (List.length frontier)) ])

(* ------------------------------------------------------------------ *)
(* Fixed-work settle table: the cost of one move of each kind on fixed
   md28 states, a random and an annealed one per Fig. 3 size.  Every
   proposal is undone, so each state is the same for all of its draws;
   the work (proposals, settles, allocations) is a function of the
   seeds alone, and only the times vary between runs.                 *)
(* ------------------------------------------------------------------ *)

let settle_batches = 20
let settle_batch = 100

(* The [q]-quantile of [xs] (nearest rank). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

let settle () =
  header "Settle — one move per kind on fixed md28 states";
  Printf.printf
    "states: Solution.random (seed = CLBs) and the best of a 20000-move sa\n\
     (seed = CLBs) at each Fig. 3 size; per state and kind %d proposals\n\
     through Moves.propose_kind (Rng seed 7), each one undone; ns per\n\
     propose + settle + undo over batches of %d (monotonic clock);\n\
     settles full + partial, and a partial pass's mean suffix in nodes.\n\n"
    (settle_batches * settle_batch) settle_batch;
  let app = Md.app () in
  let states =
    List.concat_map
      (fun n_clb ->
        let platform = Md.platform ~n_clb () in
        let annealed =
          Explorer.explore (Explorer.sa_config ~seed:n_clb 20_000) app platform
        in
        [ Solution.random (Rng.create n_clb) app platform;
          annealed.Explorer.best ])
      Md.fig3_sizes
  in
  let kinds =
    Solution.[ Impl; Sw_reorder; Sw_migrate; Ctx_migrate; Ctx_create; Ctx_swap ]
  in
  let table =
    Table.create
      [ ("kind", Table.Left); ("applied", Table.Right);
        ("settles", Table.Right); ("suffix", Table.Right);
        ("words/move", Table.Right);
        ("ns q1", Table.Right); ("ns median", Table.Right);
        ("ns q3", Table.Right) ]
  in
  let metrics =
    List.concat_map
      (fun kind ->
        let label = Solution.move_kind_label kind in
        let samples = ref [] and applied = ref 0 and settles = ref 0 in
        let partial = ref 0 and suffix = ref 0 and words = ref 0.0 in
        List.iter
          (fun s ->
            let rng = Rng.create 7 in
            let stats = Solution.eval_stats s in
            let ks = Solution.kind_stats stats kind in
            let before = stats.Solution.full_evals + stats.Solution.incr_evals in
            let partial0 = ks.Solution.k_incr_evals in
            let suffix0 = ks.Solution.k_incr_nodes in
            for _ = 1 to settle_batches do
              let w0 = Gc.minor_words () and t0 = Clock.mono () in
              for _ = 1 to settle_batch do
                match Moves.propose_kind rng Moves.fixed_architecture s kind with
                | Some undo ->
                  incr applied;
                  undo ()
                | None -> ()
              done;
              let t1 = Clock.mono () in
              words := !words +. (Gc.minor_words () -. w0);
              samples := (t1 -. t0) *. 1e9 /. float_of_int settle_batch :: !samples
            done;
            settles :=
              !settles + stats.Solution.full_evals + stats.Solution.incr_evals
              - before;
            partial := !partial + ks.Solution.k_incr_evals - partial0;
            suffix := !suffix + ks.Solution.k_incr_nodes - suffix0)
          states;
        let mean_suffix =
          if !partial = 0 then 0.0
          else float_of_int !suffix /. float_of_int !partial
        in
        let moves = float_of_int (List.length states * settle_batches * settle_batch) in
        let q1 = quantile 0.25 !samples and median = quantile 0.5 !samples in
        let q3 = quantile 0.75 !samples and per_move = !words /. moves in
        Table.add_row table
          [ label; Table.cell_int !applied; Table.cell_int !settles;
            Table.cell_float ~decimals:1 mean_suffix;
            Table.cell_float ~decimals:1 per_move;
            Table.cell_float ~decimals:0 q1; Table.cell_float ~decimals:0 median;
            Table.cell_float ~decimals:0 q3 ];
        [ (label ^ "_applied", float_of_int !applied);
          (label ^ "_settles", float_of_int !settles);
          (label ^ "_suffix_mean", mean_suffix);
          (label ^ "_words_per_move", per_move);
          (label ^ "_ns_p25", q1); (label ^ "_ns_p50", median);
          (label ^ "_ns_p75", q3) ])
      kinds
  in
  print_string (Table.render table);
  metrics

(* ------------------------------------------------------------------ *)
(* Beyond the paper: multiprocessor platforms (the general model of
   section 3 allows several processors).                               *)
(* ------------------------------------------------------------------ *)

let multiproc () =
  header "Extension — second processor (general multiprocessor model)";
  Printf.printf
    "same FPGA, with and without an extra DSP running the software\n\
     estimates 1.5x faster; gains hinge on how much software load remains.\n\n";
  let table =
    Table.create
      [ ("application", Table.Left); ("1 CPU ms", Table.Right);
        ("CPU+DSP ms", Table.Right); ("gain %", Table.Right) ]
  in
  List.iter
    (fun (name, make) ->
      let app = make () in
      let n_clb = 400 in
      let single =
        Repro_arch.Platform.make ~name:"single"
          ~processor:(Repro_arch.Resource.processor ~cost:10.0 "cpu")
          ~rc:
            (Repro_arch.Resource.reconfigurable ~cost:8.0 ~n_clb
               ~reconfig_ms_per_clb:0.0225 "fpga")
          ~bus:{ Repro_arch.Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
          ()
      in
      let dual =
        Repro_arch.Platform.make ~name:"dual"
          ~processor:(Repro_arch.Resource.processor ~cost:10.0 "cpu")
          ~rc:
            (Repro_arch.Resource.reconfigurable ~cost:8.0 ~n_clb
               ~reconfig_ms_per_clb:0.0225 "fpga")
          ~extra:[ Repro_arch.Resource.processor ~cost:6.0 ~speed:1.5 "dsp" ]
          ~bus:{ Repro_arch.Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
          ()
      in
      let best platform =
        (explore_once ~iterations:iters_per_run ~seed:13 app platform)
          .Explorer.best_cost
      in
      let single_ms = best single and dual_ms = best dual in
      Table.add_row table
        [
          name;
          Table.cell_float single_ms;
          Table.cell_float dual_ms;
          Table.cell_float ~decimals:1
            ((single_ms -. dual_ms) /. single_ms *. 100.0);
        ])
    Suite_w.named;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("compare", compare_methods);
    ("space", space);
    ("ablation_schedule", ablation_schedule);
    ("ablation_moves", ablation_moves);
    ("ablation_bus", ablation_bus);
    ("ablation_tabu", ablation_tabu);
    ("pareto", pareto);
    ("scaling", scaling);
    ("multiproc", multiproc);
    ("suite", suite_eval);
    ("settle", settle);
  ]

let json_field (key, value) =
  Printf.sprintf "%S: %s" key
    (if Float.is_finite value then Printf.sprintf "%g" value else "null")

let write_json name ~wall metrics =
  let path = Printf.sprintf "BENCH_%s.json" name in
  (* Atomic write: a killed benchmark run never leaves a truncated
     BENCH_*.json behind. *)
  Repro_util.Atomic_io.write_file path (fun oc ->
      Printf.fprintf oc
        "{\"experiment\": %S, \"wall_seconds\": %g, \"metrics\": {%s}}\n" name
        wall
        (String.concat ", " (List.map json_field metrics)));
  path

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | [ _ ] | [] -> List.map fst experiments
  in
  Printf.printf
    "DSE-for-DRA benchmark harness (Miramond & Delosme, DATE'05 reproduction)\n";
  Printf.printf "experiments: %s\n" (String.concat ", " requested);
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run ->
        let t0 = Clock.wall () in
        let metrics = run () in
        let wall = Clock.wall () -. t0 in
        let path = write_json name ~wall metrics in
        Printf.printf "\n[%s: %.2f s, wrote %s]\n" name wall path
      | None ->
        Printf.printf "unknown experiment %S (available: %s)\n" name
          (String.concat ", " (List.map fst experiments)))
    requested
