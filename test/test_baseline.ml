open Repro_taskgraph
open Repro_arch
module Ga = Repro_baseline.Ga
module Rng = Repro_util.Rng
module Greedy = Repro_baseline.Greedy
module Random_search = Repro_baseline.Random_search
module Hill_climb = Repro_baseline.Hill_climb
module Tabu = Repro_baseline.Tabu
module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution
module Searchgraph = Repro_sched.Searchgraph
module Md = Repro_workloads.Motion_detection

let impl clbs hw_time = { Task.clbs; hw_time }

let app () =
  let t id sw_time clbs =
    Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F" ~sw_time
      ~impls:[ impl clbs (sw_time /. 3.0) ]
  in
  App.make ~name:"chain4" ~deadline:20.0
    ~tasks:[ t 0 2.0 40; t 1 3.0 50; t 2 4.0 60; t 3 1.0 30 ]
    ~edges:
      [
        { App.src = 0; dst = 1; kbytes = 2.0 };
        { App.src = 1; dst = 2; kbytes = 2.0 };
        { App.src = 2; dst = 3; kbytes = 2.0 };
      ]
    ()

let platform ?(n_clb = 100) () =
  Platform.make ~name:"p"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb ~reconfig_ms_per_clb:0.005 "rc")
    ~bus:Platform.default_bus ()

(* --- clustering --- *)

(* Clustering with every task asking for hardware unless [is_hw]
   says otherwise, each on its single implementation. *)
let cluster ?(is_hw = fun _ -> true) app platform =
  let n = App.size app in
  let area =
    Array.init n (fun v ->
        if is_hw v then (Task.impl (App.task app v) 0).Task.clbs else -1)
  in
  let context = Array.make n 0 in
  let count =
    Decode_reference.contexts app ~limit:(Platform.n_clb platform) ~area
      ~context
  in
  (Decode_reference.members app ~context count, context)

let test_clustering_capacity () =
  let app = app () in
  let contexts, _ = cluster app (platform ~n_clb:100 ()) in
  (* Areas 40,50,60,30 against 100: [40+50]; [60+30]. *)
  Alcotest.(check (list (list int))) "packed in topo order" [ [ 0; 1 ]; [ 2; 3 ] ]
    contexts

let test_clustering_skips_oversized () =
  let app = app () in
  let platform = platform ~n_clb:45 () in
  let contexts, context = cluster app platform in
  List.iter
    (fun members ->
      Alcotest.(check bool) "only tasks that fit" true
        (List.for_all (fun v -> v = 0 || v = 3) members))
    contexts;
  Alcotest.(check (list int)) "oversized stay in software" [ -1; -1 ]
    [ context.(1); context.(2) ]

let test_clustering_respects_is_hw () =
  let app = app () in
  let contexts, _ = cluster ~is_hw:(fun v -> v = 2) app (platform ()) in
  Alcotest.(check (list (list int))) "only task 2" [ [ 2 ] ] contexts

(* --- GA --- *)

(* Every baseline runs through the engine contract. *)
let run ?observe engine ~seed ~iterations app platform =
  Engine.run engine (Engine.context ?observe ~app ~platform ~seed ~iterations ())

let test_ga_decode_feasible () =
  let app = app () in
  let platform = platform () in
  let individual =
    { Ga.hw = [| true; false; true; false |]; impl = [| 0; 0; 0; 0 |] }
  in
  let spec = Ga.decode app platform individual in
  match Searchgraph.evaluate spec with
  | None -> Alcotest.fail "decoded spec should be feasible"
  | Some eval ->
    Alcotest.(check bool) "uses hardware" true
      (eval.Searchgraph.n_contexts >= 1)

let test_ga_decode_oversized_to_sw () =
  let app = app () in
  let platform = platform ~n_clb:45 () in
  let individual =
    { Ga.hw = [| false; true; true; false |]; impl = [| 0; 0; 0; 0 |] }
  in
  let spec = Ga.decode app platform individual in
  (* Tasks 1 (50) and 2 (60) cannot fit a 45-CLB device. *)
  Alcotest.(check int) "nothing in hardware" 0 (List.length spec.Searchgraph.contexts);
  Alcotest.(check int) "all software" 4 (List.length spec.Searchgraph.sw_order)

let test_ga_improves () =
  let app = app () in
  let history = ref [] in
  let observe (p : Engine.probe) = history := p.cost :: !history in
  let o =
    run ~observe (Ga.engine ~population:30 ()) ~seed:3 ~iterations:15 app
      (platform ())
  in
  Alcotest.(check bool) "beats all-software" true
    (o.Engine.best_cost < App.total_sw_time app);
  Alcotest.(check bool) "history is monotone" true
    (let rec monotone = function
       | a :: (b :: _ as rest) -> a >= b -. 1e-12 && monotone rest
       | [ _ ] | [] -> true
     in
     monotone (o.Engine.initial_cost :: List.rev !history));
  Alcotest.(check int) "one probe per generation" 15 (List.length !history)

let test_ga_on_motion_detection () =
  let o =
    run (Ga.engine ~population:60 ()) ~seed:1 ~iterations:25 (Md.app ())
      (Md.platform ())
  in
  Alcotest.(check bool) "meets the 40 ms constraint" true
    (o.Engine.best_cost < 40.0)

let test_ga_spatial_only () =
  let app = app () in
  let o =
    run
      (Ga.engine ~population:30 ~explore_impls:false ())
      ~seed:3 ~iterations:15 app (platform ())
  in
  (* Every implementation gene stays at the smallest variant. *)
  Alcotest.(check bool) "impl genes untouched" true
    (List.for_all
       (fun v -> Solution.impl_index o.Engine.best v = 0)
       (List.init (App.size app) Fun.id))

(* --- breeding against the single-draw reference --- *)

let random_parent rng app =
  let n = App.size app in
  {
    Ga.hw = Array.init n (fun _ -> Rng.bool rng);
    impl =
      Array.init n (fun v -> Rng.int rng (Task.impl_count (App.task app v)));
  }

(* A child bred by [Ga] and one bred by [Breeding_reference] from the
   same parents and generator state: crossover then mutation, as a
   generation breeds, and mutation of a parent's copy, as it does when
   crossover is skipped.  At rate 1 every gene hits, so the [Rng.int]
   draws of the implementation genes interleave with the rest. *)
let breeds_like_reference ~explore_impls =
  let apps = lazy [| Md.app (); fst (Test_golden.layered128 ()) |] in
  QCheck.Test.make ~count:150
    ~name:
      (Printf.sprintf "%s breeding = single-draw reference"
         (if explore_impls then "ga" else "ga-spatial"))
    QCheck.(triple small_nat (int_bound 2) (int_bound 1))
    (fun (seed, r, which) ->
      let app = (Lazy.force apps).(which) in
      let rate = [| 0.0; 0.02; 1.0 |].(r) in
      let rng = Rng.create seed in
      let a = random_parent rng app and b = random_parent rng app in
      let fast = Rng.copy rng and slow = Rng.copy rng in
      let child = Ga.crossover fast a b in
      let want = Breeding_reference.crossover slow a b in
      Ga.mutate fast ~explore_impls app rate child;
      Breeding_reference.mutate slow ~explore_impls app rate want;
      let copy i =
        { Ga.hw = Array.copy i.Ga.hw; impl = Array.copy i.Ga.impl }
      in
      let mutant = copy a and want_mutant = copy a in
      Ga.mutate fast ~explore_impls app rate mutant;
      Breeding_reference.mutate slow ~explore_impls app rate want_mutant;
      child = want && mutant = want_mutant && Rng.state fast = Rng.state slow)

(* --- greedy --- *)

let test_greedy_fraction () =
  let app = app () in
  let spec = Greedy.with_fraction app (platform ()) 0.5 in
  (* Heaviest half = tasks 2 (4.0) and 1 (3.0). *)
  let hw_tasks =
    List.filter
      (fun v -> spec.Searchgraph.binding v <> Searchgraph.Sw)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "two heaviest in hw" [ 1; 2 ] hw_tasks

let md28 () = (Md.app (), Md.platform ~n_clb:2000 ())

let fixture name = Filename.concat "fixtures" name

(* A good fixture application on the good fixture board: two
   processors, the first at speed 1.5, so software times are scaled. *)
let on_board tg () =
  match
    (Repro_taskgraph.App_io.load (fixture tg),
     Platform_io.load (fixture "good_board.plat"))
  with
  | Ok app, Ok platform -> (app, platform)
  | Error msg, _ | _, Error msg -> Alcotest.fail msg

(* The GA's fitness (flat decode, then the shared flat pass) against
   independent paths: the longest path of the decoded spec's search
   graph as [Searchgraph.build] constructs it, and the same realization
   built as a Solution (slotted live graph, dynamic longest path) and
   checked by [Validate].  [score] is one scorer shared by every
   chromosome of the input, so stale tables from the previous
   chromosome would show; [Ga.fitness] builds its own.  Returns the
   feasible count. *)
let check_against_oracle app platform score k individual =
  let fitness = Ga.fitness app platform individual in
  let label what = Printf.sprintf "chromosome %d: %s" k what in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) (label "shared tables score the same") (bits fitness)
    (bits (score individual));
  let g, node_weight, edge_weight =
    Searchgraph.build (Ga.decode app platform individual)
  in
  if not (Graph.is_dag g) then begin
    Alcotest.(check bool) (label "infeasible scores infinity") true
      (fitness = infinity);
    0
  end
  else begin
    let finish = Graph.longest_path g ~node_weight ~edge_weight in
    Alcotest.(check int64) (label "fitness is the longest path")
      (bits (Array.fold_left Float.max 0.0 finish)) (bits fitness);
    match Ga.solution_of app platform individual with
    | Error msg -> Alcotest.fail (label msg)
    | Ok s ->
      Alcotest.(check int64) (label "Solution agrees") (bits fitness)
        (bits (Solution.makespan s));
      (match Repro_sched.Validate.evaluated (Solution.spec s) with
       | Ok () -> ()
       | Error problems -> Alcotest.fail (label (String.concat "; " problems)));
      1
  end

(* Each chromosome draws its own hardware density, so sparse
   partitions — the ones that decode to an acyclic graph — are well
   represented. *)
let random_chromosomes ~explore_impls rng app count =
  let module Rng = Repro_util.Rng in
  let n = App.size app in
  List.init count (fun _ ->
      let density = Rng.float rng 1.0 in
      {
        Ga.hw = Array.init n (fun _ -> Rng.bernoulli rng density);
        impl =
          Array.init n (fun v ->
              if explore_impls then
                Rng.int rng (Task.impl_count (App.task app v))
              else 0);
      })

let ga_differential ~explore_impls input () =
  let app, platform = input () in
  let score = Ga.scorer app platform in
  let individuals =
    random_chromosomes ~explore_impls (Repro_util.Rng.create 11) app 200
  in
  let feasible =
    List.fold_left ( + ) 0
      (List.mapi (check_against_oracle app platform score) individuals)
  in
  Alcotest.(check bool)
    (Printf.sprintf "enough feasible chromosomes (%d)" feasible)
    true (feasible >= 20)

(* The individuals of a GA payload's state block: one
   "ind <fitness> <hw-genes> <impl-genes>" line each. *)
let population_of_payload payload =
  let rec after_state = function
    | "state" :: rest -> rest
    | _ :: rest -> after_state rest
    | [] -> Alcotest.fail "payload without a state block"
  in
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | "ind" :: fit :: genes :: impls ->
        Some
          ( float_of_string fit,
            {
              Ga.hw =
                Array.init (String.length genes) (fun v -> genes.[v] = '1');
              impl = Array.of_list (List.map int_of_string impls);
            } )
      | _ -> None)
    (after_state (String.split_on_char '\n' payload))

(* The final population of a 3-generation registered-GA run on the
   132-task graph: evolved, not random, and mostly infeasible.  Every
   recorded fitness is also re-derived bit for bit. *)
let test_ga_final_population_vs_oracle () =
  let app, platform = Test_golden.layered128 () in
  let session =
    match
      Engine.start (Ga.engine ())
        (Engine.context ~app ~platform ~seed:1 ~iterations:3 ())
    with
    | Ok session -> session
    | Error msg -> Alcotest.fail msg
  in
  ignore (session.Engine.advance ~until:(fun _ -> false));
  let population = population_of_payload (session.Engine.payload ()) in
  Alcotest.(check int) "whole population" 300 (List.length population);
  let score = Ga.scorer app platform in
  let feasible =
    List.fold_left ( + ) 0
      (List.mapi
         (fun k (recorded, individual) ->
           Alcotest.(check int64)
             (Printf.sprintf "chromosome %d: recorded fitness" k)
             (Int64.bits_of_float recorded)
             (Int64.bits_of_float (Ga.fitness app platform individual));
           check_against_oracle app platform score k individual)
         population)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mostly infeasible, elites feasible (%d/300)" feasible)
    true (feasible >= 2 && feasible < 150)

(* A, B, A on one run's tables: B (every task in hardware, a different
   context count and software chain) must leave nothing behind that
   changes A's bits. *)
let test_ga_tables_reused () =
  let app, platform = Test_golden.layered128 () in
  let score = Ga.scorer app platform in
  let a =
    List.find
      (fun i -> Float.is_finite (Ga.fitness app platform i))
      (random_chromosomes ~explore_impls:true (Repro_util.Rng.create 5) app
         100)
  in
  let n = App.size app in
  let b = { Ga.hw = Array.make n true; impl = Array.make n 0 } in
  let first = score a in
  let middle = score b in
  let again = score a in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "A twice, same bits" (bits first) (bits again);
  Alcotest.(check int64) "A as fresh tables score it" (bits first)
    (bits (Ga.fitness app platform a));
  Alcotest.(check int64) "B as fresh tables score it" (bits middle)
    (bits (Ga.fitness app platform b))

(* A GA generation scores ~300 chromosomes: with the run's tables
   allocated, scoring a chromosome allocates its result's box (2
   words) and nothing else. *)
let test_ga_scoring_allocation () =
  let app, platform = Test_golden.layered128 () in
  let score = Ga.scorer app platform in
  let individuals =
    Array.of_list
      (random_chromosomes ~explore_impls:true (Repro_util.Rng.create 3) app
         100)
  in
  let count = Array.length individuals in
  ignore (score individuals.(0) : float);
  let before = Gc.minor_words () in
  for i = 0 to count - 1 do
    ignore (score individuals.(i) : float)
  done;
  (* Each call boxes its result; the first reading may count its own
     box as well. *)
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d scored chromosomes (<= %d)" words
       count
       ((2 * count) + 2))
    true
    (words <= float_of_int ((2 * count) + 2))

let test_greedy_run () =
  let app = app () in
  let o = run Greedy.engine ~seed:1 ~iterations:11 app (platform ()) in
  Alcotest.(check bool) "beats all-software" true
    (o.Engine.best_cost < App.total_sw_time app);
  Alcotest.(check int) "one fraction per iteration" 11 o.Engine.iterations_run

(* --- random search --- *)

let test_random_search () =
  let app = app () in
  let o = run Random_search.engine ~seed:1 ~iterations:200 app (platform ()) in
  Alcotest.(check bool) "no worse than all-software" true
    (o.Engine.best_cost <= App.total_sw_time app);
  Alcotest.(check int) "samples counted" 200 o.Engine.iterations_run

(* --- tabu search --- *)

let test_tabu () =
  let app = app () in
  let o =
    run
      (Tabu.engine_with ~neighbourhood:12 ~tenure:15 ())
      ~seed:4 ~iterations:300 app (platform ())
  in
  Alcotest.(check bool) "beats all-software" true
    (o.Engine.best_cost < App.total_sw_time app);
  Alcotest.(check bool) "applied moves" true (o.Engine.accepted > 0);
  Alcotest.(check bool) "best solution consistent" true
    (abs_float (Solution.makespan o.Engine.best -. o.Engine.best_cost) < 1e-9)

(* Regression for the tenure-eviction bug: remembering the same state
   hash twice within one tenure window, then evicting the *older*
   occurrence, must keep the newer occurrence tabu.  (The original
   Hashtbl.replace-based list collapsed the duplicate, so the eviction
   un-tabooed a state that was still within tenure.) *)
let test_tabu_tenure_eviction () =
  let module Tenure = Tabu.Tenure in
  let t = Tenure.create 3 in
  Tenure.remember t 1;
  Tenure.remember t 2;
  Tenure.remember t 1;
  (* Window is [1; 2; 1]; the next remember evicts the older 1. *)
  Tenure.remember t 3;
  Alcotest.(check bool) "newer occurrence of 1 still tabu" true
    (Tenure.is_tabu t 1);
  Tenure.remember t 4;
  Alcotest.(check bool) "2 aged out" false (Tenure.is_tabu t 2);
  Tenure.remember t 5;
  Alcotest.(check bool) "1 fully aged out" false (Tenure.is_tabu t 1);
  Alcotest.(check bool) "3 still within tenure" true (Tenure.is_tabu t 3)

let test_tabu_deterministic () =
  let app = app () in
  let best () =
    (run
       (Tabu.engine_with ~neighbourhood:8 ~tenure:10 ())
       ~seed:9 ~iterations:100 app (platform ()))
      .Engine.best_cost
  in
  Alcotest.(check (float 1e-12)) "same seed same result" (best ()) (best ())

(* Aspiration regression: with everything else fixed, switching the
   aspiration criterion on strictly improves the best cost on this
   seed (sobel, neighbourhood 4, tenure 8, 30 iterations, seed 12:
   18.71 ms off vs 16.84 ms on).  A tabu candidate that strictly
   improves on the current working cost is re-admitted, letting the
   search backtrack out of a stalled window it is otherwise forbidden
   to re-enter. *)
let test_tabu_aspiration_improves () =
  let app = (List.assoc "sobel" Repro_workloads.Suite.named) () in
  let platform = Repro_workloads.Suite.platform_for app in
  let best aspiration =
    let engine =
      Tabu.engine_with ~neighbourhood:4 ~tenure:8 ~aspiration ()
    in
    (run engine ~seed:12 ~iterations:30 app platform).Engine.best_cost
  in
  let off = best false and on_ = best true in
  Alcotest.(check bool)
    (Printf.sprintf "aspiration strictly improves best cost (%.4f vs %.4f)"
       on_ off)
    true (on_ < off);
  (* The knob defaults to off: the registry engine and the explicit
     aspiration-off engine produce the same stream. *)
  let default_best =
    (run
       (Tabu.engine_with ~neighbourhood:4 ~tenure:8 ())
       ~seed:12 ~iterations:30 app platform)
      .Engine.best_cost
  in
  Alcotest.(check (float 0.0)) "off is the default" off default_best

(* --- hill climbing --- *)

let test_hill_climb () =
  let app = app () in
  (* Two climbs of 500 moves. *)
  let o =
    run
      (Hill_climb.engine_with ~moves_per_climb:500 ())
      ~seed:2 ~iterations:1000 app (platform ())
  in
  Alcotest.(check bool) "no worse than all-software" true
    (o.Engine.best_cost <= App.total_sw_time app);
  Alcotest.(check int) "moves counted" 1000 o.Engine.iterations_run;
  Alcotest.(check bool) "result solution evaluates to the reported makespan"
    true
    (abs_float (Solution.makespan o.Engine.best -. o.Engine.best_cost) < 1e-9)

let suite =
  [
    Alcotest.test_case "clustering capacity" `Quick test_clustering_capacity;
    Alcotest.test_case "clustering skips oversized" `Quick
      test_clustering_skips_oversized;
    Alcotest.test_case "clustering respects is_hw" `Quick
      test_clustering_respects_is_hw;
    Alcotest.test_case "ga decode feasible" `Quick test_ga_decode_feasible;
    Alcotest.test_case "ga decode oversized to sw" `Quick
      test_ga_decode_oversized_to_sw;
    Alcotest.test_case "ga improves" `Quick test_ga_improves;
    Alcotest.test_case "ga spatial only" `Quick test_ga_spatial_only;
    Alcotest.test_case "ga on motion detection" `Slow test_ga_on_motion_detection;
    Alcotest.test_case "ga fitness vs independent paths, md28" `Quick
      (ga_differential ~explore_impls:true md28);
    Alcotest.test_case "ga-spatial fitness vs independent paths, md28" `Quick
      (ga_differential ~explore_impls:false md28);
    Alcotest.test_case "ga fitness vs independent paths, 132 tasks" `Quick
      (ga_differential ~explore_impls:true Test_golden.layered128);
    Alcotest.test_case "ga-spatial fitness vs independent paths, 132 tasks"
      `Quick
      (ga_differential ~explore_impls:false Test_golden.layered128);
    Alcotest.test_case "ga fitness vs independent paths, good_diamond.tg"
      `Quick
      (ga_differential ~explore_impls:true (on_board "good_diamond.tg"));
    Alcotest.test_case "ga fitness vs independent paths, good_tiny.tg" `Quick
      (ga_differential ~explore_impls:true (on_board "good_tiny.tg"));
    Alcotest.test_case "ga final population vs independent paths" `Quick
      test_ga_final_population_vs_oracle;
    Alcotest.test_case "ga tables reused: A, B, A" `Quick test_ga_tables_reused;
    Alcotest.test_case "ga scoring allocation" `Quick test_ga_scoring_allocation;
    QCheck_alcotest.to_alcotest (breeds_like_reference ~explore_impls:true);
    QCheck_alcotest.to_alcotest (breeds_like_reference ~explore_impls:false);
    Alcotest.test_case "greedy fraction" `Quick test_greedy_fraction;
    Alcotest.test_case "greedy run" `Quick test_greedy_run;
    Alcotest.test_case "random search" `Quick test_random_search;
    Alcotest.test_case "tabu search" `Quick test_tabu;
    Alcotest.test_case "tabu tenure eviction" `Quick test_tabu_tenure_eviction;
    Alcotest.test_case "tabu deterministic" `Quick test_tabu_deterministic;
    Alcotest.test_case "tabu aspiration improves this seed" `Quick
      test_tabu_aspiration_improves;
    Alcotest.test_case "hill climb" `Quick test_hill_climb;
  ]
