(* The domain pool: ordered collection, per-index seeding, per-item
   outcomes, the end-to-end determinism contract of
   Explorer.explore_restarts (jobs=1 and jobs=4 must agree bitwise),
   and solutions of one application built and searched on two domains
   at once. *)

module Parallel = Repro_util.Parallel
module Rng = Repro_util.Rng
module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Trace = Repro_dse.Trace
module Annealer = Repro_anneal.Annealer
module Moves = Repro_dse.Moves
module App = Repro_taskgraph.App
module Generators = Repro_taskgraph.Generators
module Platform = Repro_arch.Platform

(* Unwrap a pool run in which every item must complete. *)
let values outcomes =
  Array.map
    (function
      | Parallel.Done v -> v
      | outcome -> Alcotest.fail ("item " ^ Parallel.outcome_name outcome))
    outcomes

let map ~jobs n f =
  values (Parallel.map_outcomes ~jobs n (fun i ~stop:_ -> f i))

let test_map_matches_sequential () =
  let f i = (i * i) + 1 in
  let expected = Array.init 100 f in
  Alcotest.(check (array int)) "jobs 1" expected (map ~jobs:1 100 f);
  Alcotest.(check (array int)) "jobs 4" expected (map ~jobs:4 100 f);
  Alcotest.(check (array int)) "more jobs than items" (Array.init 3 f)
    (map ~jobs:16 3 f)

let test_map_empty () =
  Alcotest.(check (array int)) "empty" [||] (map ~jobs:4 0 (fun i -> i))

let test_per_index_rng () =
  (* Seeds derived from the item index, never from scheduling order. *)
  let f i =
    let rng = Rng.create (1_000 + i) in
    Rng.float rng 1.0
  in
  let sequential = map ~jobs:1 64 f in
  let parallel = map ~jobs:4 64 f in
  Alcotest.(check (array (float 0.0))) "identical streams" sequential parallel

let test_invalid_jobs () =
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Parallel: jobs < 1")
    (fun () -> ignore (map ~jobs:0 4 (fun i -> i)))

let test_map_outcomes_classification () =
  let module Fault = Repro_util.Fault in
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  (* One faulted item: its slot is Failed, every other item is Done —
     the supervised pool never aborts. *)
  Fault.arm_point ~site:Fault.Worker ~index:5;
  let outcomes = Parallel.map_outcomes ~jobs:4 16 (fun i ~stop:_ -> i * 2) in
  Array.iteri
    (fun i outcome ->
      match (i, outcome) with
      | 5, Parallel.Failed _ -> ()
      | 5, _ -> Alcotest.fail "faulted item not Failed"
      | i, Parallel.Done v ->
        Alcotest.(check int) (Printf.sprintf "item %d done" i) (i * 2) v
      | _, _ -> Alcotest.fail "healthy item not Done")
    outcomes;
  Alcotest.(check (option int)) "outcome_value of Failed" None
    (Parallel.outcome_value outcomes.(5));
  Alcotest.(check string) "outcome_name" "failed"
    (Parallel.outcome_name outcomes.(5))

let test_map_outcomes_skips_on_stop () =
  (* A latched stop before the run starts: every slot resolves to
     Skipped, nothing runs, nothing hangs. *)
  let outcomes =
    Parallel.map_outcomes ~jobs:2 ~should_stop:(fun () -> true) 6
      (fun _ ~stop:_ -> Alcotest.fail "body ran despite the stop")
  in
  Array.iter
    (fun outcome ->
      Alcotest.(check string) "skipped" "skipped"
        (Parallel.outcome_name outcome))
    outcomes

let test_map_outcomes_timeout_salvages () =
  (* A cooperative body under an already-expired deadline returns its
     best-so-far; the slot must classify as Timed_out (Some _), never
     lose the value. *)
  let outcomes =
    Parallel.map_outcomes ~jobs:2 ~timeout:0.000001 4
      (fun i ~stop ->
        (* Spin until the per-item deadline trips the probe, like the
           annealer polling at iteration boundaries. *)
        while not (stop ()) do ignore (Sys.opaque_identity i) done;
        i + 100)
  in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Parallel.Timed_out (Some v) ->
        Alcotest.(check int) (Printf.sprintf "item %d salvaged" i) (i + 100) v
      | _ ->
        Alcotest.fail
          (Printf.sprintf "item %d: expected Timed_out (Some _), got %s" i
             (Parallel.outcome_name outcome)))
    outcomes

let test_map_outcomes_validates () =
  match Parallel.map_outcomes ~timeout:(-1.0) 2 (fun i ~stop:_ -> i) with
  | _ -> Alcotest.fail "negative timeout accepted"
  | exception Invalid_argument _ -> ()

let test_map_outcomes_runs_each_item_once () =
  (* A raising item is Failed after its one run: the pool never
     retries, so every body, failing or not, runs exactly once. *)
  let runs = Array.init 8 (fun _ -> Atomic.make 0) in
  let outcomes =
    Parallel.map_outcomes ~jobs:3 8 (fun i ~stop:_ ->
        Atomic.incr runs.(i);
        if i = 2 then failwith "persistent" else i)
  in
  Alcotest.(check (list string)) "only item 2 fails"
    (List.init 8 (fun i -> if i = 2 then "failed" else "done"))
    (Array.to_list (Array.map Parallel.outcome_name outcomes));
  Alcotest.(check (list int)) "runs per item" [ 1; 1; 1; 1; 1; 1; 1; 1 ]
    (Array.to_list (Array.map Atomic.get runs))

let small_config ~seed =
  {
    (Explorer.sa_config 1_000) with
    Explorer.anneal =
      Annealer.for_budget ~seed ~warmup:200
        ~schedule:(Repro_anneal.Schedule.lam ~quality:0.003 ()) 1_000;
  }

let test_restarts_deterministic () =
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let run jobs =
    let trace = Trace.create () in
    let report =
      let config = small_config ~seed:5 in
      Explorer.explore_restarts ~trace ~jobs ~restarts:3
        (Explorer.annealer config) config app platform
    in
    ( Option.get report.Explorer.best_result,
      report.Explorer.restart_costs,
      Trace.entries trace )
  in
  let best1, costs1, trace1 = run 1 in
  let best4, costs4, trace4 = run 4 in
  Alcotest.(check (list (pair int (float 0.0)))) "per-chain costs identical"
    costs1 costs4;
  Alcotest.(check int) "every chain survived" 3 (List.length costs1);
  Alcotest.(check (float 0.0)) "winner cost identical"
    best1.Explorer.best_cost best4.Explorer.best_cost;
  Alcotest.(check string) "winning solution identical"
    (Format.asprintf "%a" Solution.pp best1.Explorer.best)
    (Format.asprintf "%a" Solution.pp best4.Explorer.best);
  Alcotest.(check bool) "trace identical" true (trace1 = trace4);
  Alcotest.(check bool) "trace not empty" true (trace1 <> [])

(* The application's derived data (its closure, edge index and
   topological order) is built once by [App.make] and read by every
   solution of it.  Two domains build solutions of one shared [App.t]
   (all-software, random, and decoded from an encoding) and run
   seeded moves with undos on them at the same time; each item's
   final encoding and makespan bits must equal those of a run on one
   domain.  The larger application has the shape of the benchmark's
   [layered1k] graph: 8 layers of up to 250 tasks, 600-CLB contexts. *)
let test_shared_app_across_domains () =
  let layered =
    let rec find seed =
      let app =
        Generators.layered ~name:"layered1k" (Rng.create seed)
          Generators.default_impl_model ~layers:8 ~width:250
          ~edge_probability:0.015 ~mean_sw_time:2.0 ~mean_kbytes:8.0
      in
      if App.size app >= 1000 then app else find (seed + 1)
    in
    let app = find 1 in
    (app, Platform.with_rc_size (Repro_workloads.Suite.platform_for app) 600)
  in
  let problems = [| layered; (Md.app (), Md.platform ~n_clb:2000 ()) |] in
  let encodings =
    Array.mapi
      (fun i (app, platform) ->
        Solution.encode (Solution.random (Rng.create (50 + i)) app platform))
      problems
  in
  let item i =
    let app, platform = problems.(i / 3) in
    let rng = Rng.create (100 + i) in
    let s =
      match i mod 3 with
      | 0 -> Solution.all_software app platform
      | 1 -> Solution.random rng app platform
      | _ -> (
        match Solution.decode app platform encodings.(i / 3) with
        | Ok s -> s
        | Error e -> failwith e)
    in
    let kept = ref 0 in
    for _ = 1 to 300 do
      match Moves.propose rng Moves.fixed_architecture s with
      | Some undo when Rng.bool rng -> undo ()
      | Some _ -> incr kept
      | None -> ()
    done;
    if !kept = 0 then failwith "no move kept";
    (match Solution.check_invariants s with
     | Ok () -> ()
     | Error e -> failwith e);
    (Solution.encode s, Int64.bits_of_float (Solution.makespan s))
  in
  let run jobs = map ~jobs (3 * Array.length problems) item in
  let one = run 1 and two = run 2 in
  Array.iteri
    (fun i (encoding, bits) ->
      let encoding', bits' = two.(i) in
      Alcotest.(check string) (Printf.sprintf "item %d encoding" i) encoding
        encoding';
      Alcotest.(check int64) (Printf.sprintf "item %d makespan bits" i) bits
        bits')
    one

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "map on empty range" `Quick test_map_empty;
    Alcotest.test_case "per-index rng streams" `Quick test_per_index_rng;
    Alcotest.test_case "invalid jobs rejected" `Quick test_invalid_jobs;
    Alcotest.test_case "map_outcomes isolates a failure" `Quick
      test_map_outcomes_classification;
    Alcotest.test_case "map_outcomes runs each item once" `Quick
      test_map_outcomes_runs_each_item_once;
    Alcotest.test_case "map_outcomes skips on latched stop" `Quick
      test_map_outcomes_skips_on_stop;
    Alcotest.test_case "map_outcomes timeout salvages best-so-far" `Quick
      test_map_outcomes_timeout_salvages;
    Alcotest.test_case "map_outcomes validates inputs" `Quick
      test_map_outcomes_validates;
    Alcotest.test_case "explore_restarts jobs-invariant" `Quick
      test_restarts_deterministic;
    Alcotest.test_case "one app's solutions on two domains" `Quick
      test_shared_app_across_domains;
  ]
