(* Deterministic fault injection: armed faults fire at exactly the
   chosen points, the domain pool survives a worker death (all domains
   joined, the failure confined to its item's outcome, no deadlock). *)

module Fault = Repro_util.Fault
module Parallel = Repro_util.Parallel
module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Annealer = Repro_anneal.Annealer

let with_faults f = Fun.protect ~finally:Fault.disarm f

let injected site index =
  Fault.Injected (Printf.sprintf "injected fault at %s:%d" site index)

(* One line per item: its value, or how it failed. *)
let describe outcomes =
  Array.to_list
    (Array.map
       (function
         | Parallel.Done v -> string_of_int v
         | Parallel.Failed { error; _ } -> "failed: " ^ error
         | outcome -> Parallel.outcome_name outcome)
       outcomes)

let map ~jobs n f =
  describe (Parallel.map_outcomes ~jobs n (fun i ~stop:_ -> f i))

let expect ~failing n f =
  List.init n (fun i ->
      if i = failing then
        Printf.sprintf "failed: Fault.Injected(injected fault at worker:%d)" i
      else string_of_int (f i))

let test_disarmed_is_silent () =
  Fault.disarm ();
  Alcotest.(check bool) "not armed" false (Fault.armed ());
  Fault.check Fault.Worker 5;
  Fault.tick_eval ();
  Alcotest.(check bool) "still not armed" false (Fault.armed ())

let test_worker_fault_propagates_pool_survives () =
  with_faults @@ fun () ->
  Fault.arm_point ~site:Fault.Worker ~index:5;
  let square i = i * i in
  (* The injected exception propagates into item 5's outcome, and only
     there: every other item completes. *)
  Alcotest.(check (list string)) "worker 5 dies alone"
    (expect ~failing:5 32 square)
    (map ~jobs:4 32 square);
  (* The pool joined all its domains and is reusable: the next map on
     the healed plan must complete normally — a deadlock here hangs the
     test suite, which is the regression this guards against. *)
  Fault.disarm ();
  Alcotest.(check (list string)) "pool reusable"
    (List.init 32 (fun i -> string_of_int (square i)))
    (map ~jobs:4 32 square)

let test_worker_fault_sequential () =
  with_faults @@ fun () ->
  Fault.arm_point ~site:Fault.Worker ~index:2;
  Alcotest.(check (list string)) "jobs=1 too"
    (expect ~failing:2 8 Fun.id)
    (map ~jobs:1 8 Fun.id)

let test_eval_site_counts_evaluations () =
  with_faults @@ fun () ->
  Fault.arm_point ~site:Fault.Eval ~index:2;
  (* Ticks 0 and 1 pass, tick 2 fires. *)
  Fault.tick_eval ();
  Fault.tick_eval ();
  Alcotest.check_raises "third evaluation dies" (injected "eval" 2)
    Fault.tick_eval

let test_eval_fault_reaches_explorer () =
  with_faults @@ fun () ->
  (* Solution evaluations tick the Eval site, so an armed point aborts
     an exploration deep inside the annealing loop. *)
  Fault.arm_point ~site:Fault.Eval ~index:40;
  let cfg =
    {
      (Explorer.sa_config 600) with
      Explorer.anneal =
        Annealer.for_budget ~seed:2 ~warmup:100
          ~schedule:(Repro_anneal.Schedule.lam ~quality:0.003 ()) 600;
    }
  in
  match Explorer.explore cfg (Md.app ()) (Md.platform ~n_clb:2000 ()) with
  | _ -> Alcotest.fail "armed eval fault did not fire"
  | exception Fault.Injected _ -> ()

let test_spec_parsing () =
  with_faults @@ fun () ->
  Fault.arm "worker:3, eval:120";
  Alcotest.(check bool) "armed" true (Fault.armed ());
  Alcotest.check_raises "worker point live" (injected "worker" 3) (fun () ->
      Fault.check Fault.Worker 3);
  Fault.disarm ();
  (match Fault.arm "nonsense" with
   | () -> Alcotest.fail "malformed spec accepted"
   | exception Invalid_argument _ -> ());
  match Fault.arm_point ~site:Fault.Worker ~index:(-1) with
  | () -> Alcotest.fail "negative index accepted"
  | exception Invalid_argument _ -> ()

let test_spec_error_fixtures () =
  (* Malformed $REPRO_FAULTS entries produce one-line messages naming
     the offending entry — fixture-style exact assertions. *)
  List.iter
    (fun (spec, message) ->
      Alcotest.check_raises spec (Invalid_argument message) (fun () ->
          Fault.arm spec))
    [
      ( "bogus:3",
        "Fault.arm: bad fault point \"bogus:3\": unknown site \"bogus\" \
         (want eval|worker|job|lease|fsck)" );
      ( "worker:-2",
        "Fault.arm: bad fault point \"worker:-2\": negative index -2" );
      ( "worker:soon",
        "Fault.arm: bad fault point \"worker:soon\": bad index \"soon\" \
         (want a non-negative integer)" );
      ( "worker:1:often",
        "Fault.arm: bad fault point \"worker:1:often\": want site:index" );
      ( "worker:1:transient",
        "Fault.arm: bad fault point \"worker:1:transient\": want \
         site:index" );
      ( "worker",
        "Fault.arm: bad fault point \"worker\": want site:index" );
      ( "worker:1,",
        "Fault.arm: empty fault point in \"worker:1,\" (stray comma?)" );
      ( "eval:1,,worker:2",
        "Fault.arm: empty fault point in \"eval:1,,worker:2\" (stray \
         comma?)" );
    ];
  (* A malformed tail entry must not leave the head armed as a side
     effect... the whole spec is rejected before any point arms. *)
  Fault.disarm ();
  (match Fault.arm "worker:1, bogus:2" with
   | () -> Alcotest.fail "malformed spec accepted"
   | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "nothing armed by a rejected spec" false
    (Fault.armed ())

let test_many_jobs_no_deadlock () =
  with_faults @@ fun () ->
  (* An armed point, a wide pool and repeated rounds: every round must
     terminate with exactly the armed item failed. *)
  for round = 0 to 3 do
    Fault.disarm ();
    Fault.arm_point ~site:Fault.Worker ~index:(10 + round);
    Alcotest.(check (list string))
      (Printf.sprintf "round %d" round)
      (expect ~failing:(10 + round) 64 Fun.id)
      (map ~jobs:8 64 Fun.id)
  done

let suite =
  [
    Alcotest.test_case "disarmed probes are silent" `Quick
      test_disarmed_is_silent;
    Alcotest.test_case "worker fault propagates, pool survives" `Quick
      test_worker_fault_propagates_pool_survives;
    Alcotest.test_case "worker fault at jobs=1" `Quick
      test_worker_fault_sequential;
    Alcotest.test_case "spec error fixtures" `Quick test_spec_error_fixtures;
    Alcotest.test_case "eval site counts evaluations" `Quick
      test_eval_site_counts_evaluations;
    Alcotest.test_case "eval fault reaches the explorer" `Quick
      test_eval_fault_reaches_explorer;
    Alcotest.test_case "fault spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "repeated faults never deadlock the pool" `Quick
      test_many_jobs_no_deadlock;
  ]
