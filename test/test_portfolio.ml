(* Portfolio meta-engine: spec grammar, hedged-racing cancellation
   latency, member-fault isolation, chain warm starts, --seed-from's
   read_incumbent, the latched outer stop, the checkpoint container's
   version and "no best yet" cases, file-free slicing, and the spool's
   fencing check.
   The generic contract (budgets, stop probes, bit-identical resume) is
   covered by the registry-wide suites in test_engine{,_resume}.ml. *)

open Repro_taskgraph
open Repro_arch
module Engine = Repro_dse.Engine
module Explorer = Repro_dse.Explorer
module Portfolio = Repro_dse.Portfolio
module Solution = Repro_dse.Solution
module Fault = Repro_util.Fault
module Atomic_io = Repro_util.Atomic_io
module Lease = Repro_serve.Lease
module Spool = Repro_serve.Spool

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

let platform () =
  Platform.make ~name:"p"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.005 "rc")
    ~bus:Platform.default_bus ()

let context ?should_stop ?checkpoint ?warm_start ~seed ~iterations () =
  Engine.context ?should_stop ?checkpoint ?warm_start ~app:(app ())
    ~platform:(platform ()) ~seed ~iterations ()

let engine_of ?report spec =
  match Portfolio.make ?report spec with
  | Ok e -> e
  | Error msg -> Alcotest.failf "portfolio build failed: %s" msg

let stop_after n =
  let polls = ref 0 in
  fun () ->
    incr polls;
    !polls > n

(* ---- spec grammar ------------------------------------------------- *)

let test_spec_parse () =
  (match Portfolio.parse_spec "portfolio" with
   | Ok spec ->
     Alcotest.(check bool) "bare spec is the default" true
       (spec = Portfolio.default_spec);
     Alcotest.(check string) "default canonicalizes to the registry key"
       "portfolio" (Portfolio.canonical spec)
   | Error msg -> Alcotest.fail msg);
  (match Portfolio.parse_spec "portfolio:race:sa+tabu:slice=3:target=18.5" with
   | Ok spec ->
     Alcotest.(check string) "canonical round trip"
       "portfolio:race:sa+tabu:slice=3:target=18.5" (Portfolio.canonical spec)
   | Error msg -> Alcotest.fail msg);
  (* ',' works as a member separator too, so a portfolio can ride in
     --engines lists; canonical form settles on '+'. *)
  (match Portfolio.parse_spec "portfolio:tabu,greedy" with
   | Ok spec ->
     Alcotest.(check (list string)) "comma members" [ "tabu"; "greedy" ]
       spec.Portfolio.members;
     Alcotest.(check string) "canonical uses +" "portfolio:rr:tabu+greedy"
       (Portfolio.canonical spec)
   | Error msg -> Alcotest.fail msg);
  let rejects what text =
    match Portfolio.parse_spec text with
    | Ok _ -> Alcotest.failf "%s: %S parsed" what text
    | Error _ -> ()
  in
  rejects "conflicting modes" "portfolio:rr:race";
  rejects "zero slice" "portfolio:slice=0";
  rejects "non-finite target" "portfolio:target=inf";
  rejects "nested portfolio" "portfolio:sa+portfolio:rr";
  rejects "empty member" "portfolio:sa+";
  match Portfolio.of_spec "portfolio:no-such-engine" with
  | Ok _ -> Alcotest.fail "unknown member accepted"
  | Error msg ->
    Alcotest.(check bool) "unknown member names the registry" true
      (String.length msg > 0)

(* ---- the latched outer stop ------------------------------------ *)

(* Everything in an outcome except wall time. *)
let outcome_bits (o : Engine.outcome) =
  ( Solution.encode o.Engine.best,
    Int64.bits_of_float o.Engine.best_cost,
    Int64.bits_of_float o.Engine.initial_cost,
    (o.Engine.iterations_run, o.Engine.evaluations, o.Engine.accepted),
    o.Engine.status )

let remove_checkpoint path = try Sys.remove path with Sys_error _ -> ()

let rr_spec =
  {
    Portfolio.mode = Round_robin;
    members = [ "greedy"; "hill" ];
    slice = Some 3;
    target_cost = None;
  }

let test_latched_stop () =
  (* The stop probe answers [true] on its fifth poll only: the
     portfolio must latch it, end Interrupted, and leave a checkpoint
     that resumes to the uninterrupted outcome. *)
  let path = Filename.temp_file "dse-portfolio-latch" ".ckpt" in
  Fun.protect ~finally:(fun () -> remove_checkpoint path) @@ fun () ->
  let engine = engine_of rr_spec in
  let clean = Engine.run engine (context ~seed:11 ~iterations:40 ()) in
  let polls = ref 0 in
  let once () =
    incr polls;
    !polls = 5
  in
  let ckpt resume = { Engine.path; every = 1_000; resume } in
  let killed =
    Engine.run engine
      (context ~should_stop:once ~checkpoint:(ckpt Engine.Resume_never)
         ~seed:11 ~iterations:40 ())
  in
  Alcotest.(check bool) "a one-shot stop still interrupts" true
    (killed.Engine.status = Engine.Interrupted);
  Alcotest.(check bool) "stopped early" true
    (killed.Engine.iterations_run < clean.Engine.iterations_run);
  let resumed =
    Engine.run engine
      (context ~checkpoint:(ckpt Engine.Resume_required) ~seed:11
         ~iterations:40 ())
  in
  Alcotest.(check bool) "resume is bit-identical to the clean run" true
    (outcome_bits resumed = outcome_bits clean)

(* A checkpoint every iteration cuts every slice at each member
   iteration; each cut slice must finish on the next advance exactly as
   an uncut one, in every schedule: same outcome, and in the sequential
   schedules the same observation stream, i.e. the same interleaving. *)
let test_cut_slices () =
  let path = Filename.temp_file "dse-portfolio-cut" ".ckpt" in
  Fun.protect ~finally:(fun () -> remove_checkpoint path) @@ fun () ->
  List.iter
    (fun mode ->
      let engine =
        engine_of
          { Portfolio.mode; members = [ "sa"; "hill" ]; slice = Some 3;
            target_cost = None }
      in
      let run ?checkpoint () =
        let seen = ref [] in
        let o =
          Engine.run engine
            (Engine.context ?checkpoint
               ~observe:(fun p -> seen := p :: !seen)
               ~app:(app ()) ~platform:(platform ()) ~seed:11 ~iterations:40
               ())
        in
        (outcome_bits o, !seen)
      in
      let clean = run () in
      let cut =
        run ~checkpoint:{ Engine.path; every = 1; resume = Resume_never } ()
      in
      Alcotest.(check bool)
        (Engine.name engine ^ ": outcome and observations unchanged") true
        (cut = clean))
    [ Portfolio.Round_robin; Chain; Race ]

(* ---- the checkpoint container ----------------------------------- *)

let contains text needle =
  let n = String.length needle and m = String.length text in
  let rec scan i =
    i + n <= m && (String.sub text i n = needle || scan (i + 1))
  in
  scan 0

let test_version_one_refused () =
  (* A portfolio file in the pre-container layout (format version 1):
     a required resume names the version in one line; an
     opportunistic one starts fresh. *)
  let path = Filename.temp_file "dse-portfolio-v1" ".ckpt" in
  Fun.protect ~finally:(fun () -> remove_checkpoint path) @@ fun () ->
  Repro_util.Checkpoint.save path ~kind:Engine.checkpoint_kind
    "engine portfolio 1\nfingerprint 0\nspec portfolio\ncursor 0\n\
     wall 0x0p+0\ncosts -\nbest\nstate\nlanes 2\n";
  let engine = engine_of Portfolio.default_spec in
  let ckpt resume = { Engine.path; every = 1; resume } in
  (match
     Engine.run engine
       (context ~checkpoint:(ckpt Engine.Resume_required) ~seed:11
          ~iterations:40 ())
   with
   | _ -> Alcotest.fail "a version-1 portfolio file resumed"
   | exception Failure msg ->
     Alcotest.(check bool) "diagnostic is one line" false
       (String.contains msg '\n');
     Alcotest.(check bool)
       (Printf.sprintf "%S names the version" msg)
       true
       (contains msg "version 1, this build reads 2"));
  let clean = Engine.run engine (context ~seed:11 ~iterations:40 ()) in
  let fresh =
    Engine.run engine
      (context ~checkpoint:(ckpt Engine.Resume_if_exists) ~seed:11
         ~iterations:40 ())
  in
  Alcotest.(check bool) "if-exists: a fresh, identical run" true
    (outcome_bits fresh = outcome_bits clean)

let test_no_best_yet () =
  (* Lane 0's first slice dies (its first evaluation is the armed eval
     point; later evaluations count past it) and the stop lands at that
     boundary: the flushed container holds no best yet.
     Resuming it must still match the uninterrupted (equally faulted)
     run bit for bit. *)
  let path = Filename.temp_file "dse-portfolio-nobest" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      remove_checkpoint path)
  @@ fun () ->
  let engine = engine_of rr_spec in
  let ckpt resume = { Engine.path; every = 1; resume } in
  Fault.arm "eval:0";
  let clean = Engine.run engine (context ~seed:11 ~iterations:40 ()) in
  Fault.disarm ();
  Fault.arm "eval:0";
  (match
     Engine.run engine
       (context
          ~should_stop:(fun () -> true)
          ~checkpoint:(ckpt Engine.Resume_never) ~seed:11 ~iterations:40 ())
   with
   | _ -> Alcotest.fail "a portfolio without any best returned an outcome"
   | exception Failure _ -> ());
  Fault.disarm ();
  (match Repro_util.Checkpoint.load path ~kind:Engine.checkpoint_kind with
   | Error msg -> Alcotest.failf "the stop flushed no checkpoint: %s" msg
   | Ok payload ->
     Alcotest.(check bool) "the container says there is no best yet" true
       (contains payload "\nincumbent 0\n"));
  let resumed =
    Engine.run engine
      (context ~checkpoint:(ckpt Engine.Resume_required) ~seed:11
         ~iterations:40 ())
  in
  Alcotest.(check bool) "resume is bit-identical to the clean run" true
    (outcome_bits resumed = outcome_bits clean)

(* ---- hedged racing ------------------------------------------------ *)

let test_race_hedged_cancellation () =
  let members = [ "greedy"; "hill" ] in
  (* Learn an achievable cost from a clean (untargeted) race, then
     hedge a second race on it: per-lane streams are deterministic, so
     some lane must reach it again. *)
  let clean =
    Engine.run
      (engine_of
         { Portfolio.mode = Race; members; slice = None; target_cost = None })
      (context ~seed:11 ~iterations:40 ())
  in
  let target = clean.Engine.best_cost *. (1.0 +. 1e-9) in
  let lanes = ref [||] in
  let hedged =
    Engine.run
      (engine_of
         ~report:(fun l -> lanes := l)
         {
           Portfolio.mode = Race;
           members;
           slice = None;
           target_cost = Some target;
         })
      (context ~seed:11 ~iterations:40 ())
  in
  Alcotest.(check bool) "hedged race completes" true
    (hedged.Engine.status = Engine.Complete);
  Alcotest.(check bool) "winner met the target" true
    (hedged.Engine.best_cost <= target);
  (match Solution.check_invariants hedged.Engine.best with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "invalid best: %s" msg);
  Alcotest.(check bool) "best_cost is the best solution's makespan" true
    (Float.abs (Solution.makespan hedged.Engine.best -. hedged.Engine.best_cost)
     < 1e-9);
  let lanes = !lanes in
  Alcotest.(check int) "one lane per member" (List.length members)
    (Array.length lanes);
  let winners =
    Array.to_list lanes
    |> List.filter (fun l -> l.Portfolio.state = "won")
  in
  (match winners with
   | [ w ] ->
     (* The cancellation-latency bound: with a target the race slices
        one iteration at a time, so every losing lane stopped within
        one iteration boundary of the winner's finish. *)
     Array.iter
       (fun l ->
         if l.Portfolio.state <> "won" then begin
           Alcotest.(check bool)
             (Printf.sprintf "loser %s stopped within one boundary (%d vs %d)"
                l.Portfolio.member l.Portfolio.iterations w.Portfolio.iterations)
             true
             (l.Portfolio.iterations <= w.Portfolio.iterations + 1);
           Alcotest.(check bool)
             (Printf.sprintf "loser %s cancelled or finished"
                l.Portfolio.member)
             true
             (List.mem l.Portfolio.state [ "cancelled"; "finished" ])
         end)
       lanes;
     Alcotest.(check bool) "winner's lane best meets the target" true
       (w.Portfolio.best <= target)
   | _ -> Alcotest.failf "expected exactly one winner, got %d"
            (List.length winners))

(* ---- member-fault isolation --------------------------------------- *)

let test_faulted_member_degrades () =
  (* The REPRO_FAULTS drill in miniature: worker:1 kills lane 1's first
     racing slice (racing lanes map onto worker indices in lane order),
     exactly what REPRO_FAULTS=worker:1 does to a daemonized portfolio.
     The portfolio must keep going on the surviving lane. *)
  Fun.protect ~finally:Fault.disarm (fun () ->
      Fault.arm "worker:1";
      let lanes = ref [||] in
      let outcome =
        Engine.run
          (engine_of
             ~report:(fun l -> lanes := l)
             {
               Portfolio.mode = Race;
               members = [ "greedy"; "hill" ];
               slice = None;
               target_cost = None;
             })
          (context ~seed:11 ~iterations:40 ())
      in
      Alcotest.(check bool) "portfolio completes despite the dead lane" true
        (outcome.Engine.status = Engine.Complete);
      (match Solution.check_invariants outcome.Engine.best with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "invalid best: %s" msg);
      let lanes = !lanes in
      Alcotest.(check bool) "lane 1 is the degraded one" true
        (String.starts_with ~prefix:"faulted" lanes.(1).Portfolio.state);
      Alcotest.(check string) "lane 0 survives to completion" "finished"
        lanes.(0).Portfolio.state;
      Alcotest.(check bool) "outcome is best-of-survivors" true
        (Float.abs (outcome.Engine.best_cost -. lanes.(0).Portfolio.best)
         < 1e-12))

let test_all_lanes_lost_fails () =
  Fun.protect ~finally:Fault.disarm (fun () ->
      Fault.arm "worker:0,worker:1";
      match
        Engine.run
          (engine_of
             {
               Portfolio.mode = Race;
               members = [ "greedy"; "hill" ];
               slice = None;
               target_cost = None;
             })
          (context ~seed:11 ~iterations:40 ())
      with
      | _ -> Alcotest.fail "a fully lost portfolio must raise"
      | exception Failure msg ->
        Alcotest.(check bool) "failure names the lost lanes" true
          (String.length msg > 0))

(* A member whose first slice raises: round-robin and chain slices run
   outside any pool, so the exception itself faults the lane. *)
let crashing_member : Engine.t =
  (module struct
    let name = "test-crashing-member"
    let describe = "raises on its first slice"
    let knobs = "none"
    let default_iterations = 10

    let start ?payload:_ _ctx =
      Ok
        {
          Engine.advance = (fun ~until:_ -> failwith "member crashed");
          outcome = (fun () -> assert false);
          payload = (fun () -> assert false);
        }
  end)

let test_sequential_member_raises () =
  Repro_dse.Engine_registry.register crashing_member;
  let lanes = ref [||] in
  let outcome =
    Engine.run
      (engine_of
         ~report:(fun l -> lanes := l)
         {
           Portfolio.mode = Round_robin;
           members = [ "test-crashing-member"; "hill" ];
           slice = None;
           target_cost = None;
         })
      (context ~seed:11 ~iterations:40 ())
  in
  let lanes = !lanes in
  Alcotest.(check string) "the raising lane is faulted with its reason"
    "faulted: Failure(\"member crashed\")" lanes.(0).Portfolio.state;
  Alcotest.(check string) "the other lane completes" "finished"
    lanes.(1).Portfolio.state;
  Alcotest.(check bool) "portfolio completes" true
    (outcome.Engine.status = Engine.Complete);
  Alcotest.(check bool) "outcome is the surviving lane's best" true
    (outcome.Engine.best_cost = lanes.(1).Portfolio.best)

let test_worker_faults_skip_sequential_slices () =
  (* A worker fault indexes pool items; no round-robin slice is one. *)
  Fun.protect ~finally:Fault.disarm (fun () ->
      Fault.arm "worker:0";
      let lanes = ref [||] in
      let outcome =
        Engine.run
          (engine_of
             ~report:(fun l -> lanes := l)
             {
               Portfolio.mode = Round_robin;
               members = [ "greedy"; "hill" ];
               slice = None;
               target_cost = None;
             })
          (context ~seed:11 ~iterations:40 ())
      in
      Alcotest.(check bool) "portfolio completes" true
        (outcome.Engine.status = Engine.Complete);
      Array.iter
        (fun l ->
          Alcotest.(check string) "no lane is faulted" "finished"
            l.Portfolio.state)
        !lanes)

(* ---- chain warm starts -------------------------------------------- *)

let test_chain_warm_start () =
  let lanes = ref [||] in
  let outcome =
    Engine.run
      (engine_of
         ~report:(fun l -> lanes := l)
         {
           Portfolio.mode = Chain;
           members = [ "greedy"; "hill" ];
           slice = None;
           target_cost = None;
         })
      (context ~seed:11 ~iterations:40 ())
  in
  Alcotest.(check bool) "chain completes" true
    (outcome.Engine.status = Engine.Complete);
  let lanes = !lanes in
  (* Stage 1 starts from stage 0's incumbent, so its best can only be
     at least as good — the warm start is the whole point. *)
  Alcotest.(check bool) "warm-started stage never reports worse" true
    (lanes.(1).Portfolio.best <= lanes.(0).Portfolio.best +. 1e-12);
  Alcotest.(check bool) "overall best is the chain's floor" true
    (Float.abs
       (outcome.Engine.best_cost
       -. Float.min lanes.(0).Portfolio.best lanes.(1).Portfolio.best)
     < 1e-12)

(* ---- read_incumbent / --seed-from --------------------------------- *)

let test_read_incumbent_and_warm_start () =
  let path = Filename.temp_file "dse-incumbent" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let donor =
        match Repro_dse.Engine_registry.find "greedy" with
        | Ok e -> e
        | Error msg -> Alcotest.fail msg
      in
      let killed =
        Engine.run donor
          (context
             ~should_stop:(stop_after 5)
             ~checkpoint:
               { Engine.path; every = 1; resume = Engine.Resume_never }
             ~seed:11 ~iterations:40 ())
      in
      Alcotest.(check bool) "donor was interrupted mid-run" true
        (killed.Engine.status = Engine.Interrupted);
      (* The incumbent crosses engines: only the inputs must match. *)
      match Explorer.read_incumbent path (app ()) (platform ()) with
      | Error msg -> Alcotest.fail msg
      | Ok incumbent ->
        Alcotest.(check bool) "incumbent is the donor's best" true
          (Float.abs (Solution.makespan incumbent -. killed.Engine.best_cost)
           < 1e-9);
        let recipient =
          match Repro_dse.Engine_registry.find "hill" with
          | Ok e -> e
          | Error msg -> Alcotest.fail msg
        in
        let warmed =
          Engine.run recipient
            (context ~warm_start:incumbent ~seed:3 ~iterations:10 ())
        in
        Alcotest.(check bool) "recipient starts from the donated incumbent"
          true
          (Float.abs
             (warmed.Engine.initial_cost -. killed.Engine.best_cost)
           < 1e-9);
        Alcotest.(check bool) "recipient never reports worse than the seed"
          true
          (warmed.Engine.best_cost <= killed.Engine.best_cost +. 1e-12))

let test_read_incumbent_portfolio_checkpoint () =
  let path = Filename.temp_file "dse-portfolio-ckpt" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> remove_checkpoint path)
    (fun () ->
      let outcome =
        Engine.run
          (engine_of
             {
               Portfolio.mode = Round_robin;
               members = [ "greedy"; "hill" ];
               slice = Some 1;
               target_cost = None;
             })
          (context
             ~should_stop:(stop_after 7)
             ~checkpoint:
               { Engine.path; every = 1; resume = Engine.Resume_never }
             ~seed:11 ~iterations:40 ())
      in
      Alcotest.(check bool) "portfolio was interrupted mid-run" true
        (outcome.Engine.status = Engine.Interrupted);
      match Explorer.read_incumbent path (app ()) (platform ()) with
      | Error msg -> Alcotest.fail msg
      | Ok incumbent ->
        Alcotest.(check bool)
          "the nested checkpoint's incumbent is the portfolio's best" true
          (Float.abs (Solution.makespan incumbent -. outcome.Engine.best_cost)
           < 1e-9))

(* ---- slicing is file-free ----------------------------------------- *)

(* Runs [f] with the process temp dir pointed at a fresh private
   directory, so every file a run creates — checkpoint or scratch —
   shows up in one listing. *)
let with_private_temp f =
  let dir = Filename.temp_dir "dse-portfolio-files" "" in
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_slicing_is_file_free () =
  let members = [ "greedy"; "hill" ] in
  List.iter
    (fun spec ->
      with_private_temp @@ fun dir ->
      let name = Portfolio.canonical spec in
      let engine = engine_of spec in
      let listing () = List.sort compare (Array.to_list (Sys.readdir dir)) in
      (* Polled at every boundary the portfolio polls (between racing
         rounds) and at every forwarded observation (sequential
         schedules): no file but [allowed] may exist then. *)
      let run ?should_stop ?checkpoint what allowed =
        let check () =
          let extra = List.filter (fun f -> not (List.mem f allowed)) in
          match extra (listing ()) with
          | [] -> ()
          | extra ->
            Alcotest.failf "%s, %s: unexpected files %s" name what
              (String.concat ", " extra)
        in
        let o =
          Engine.run engine
            (Engine.context
               ~should_stop:(fun () ->
                 check ();
                 match should_stop with Some stop -> stop () | None -> false)
               ~observe:(fun _ -> check ())
               ?checkpoint ~app:(app ()) ~platform:(platform ()) ~seed:11
               ~iterations:40 ())
        in
        check ();
        o
      in
      ignore (run "no checkpoint" []);
      let path = Filename.concat dir "run.ckpt" in
      let ckpt every = { Engine.path; every; resume = Engine.Resume_never } in
      ignore (run ~checkpoint:(ckpt 1_000_000) "large cadence" [ "run.ckpt" ]);
      remove_checkpoint path;
      let killed =
        run ~should_stop:(stop_after 7) ~checkpoint:(ckpt 1) "interrupted"
          [ "run.ckpt" ]
      in
      Alcotest.(check bool) (name ^ ": interrupted") true
        (killed.Engine.status = Engine.Interrupted);
      Alcotest.(check (list string)) (name ^ ": only the checkpoint remains")
        [ "run.ckpt" ] (listing ()))
    [
      { Portfolio.mode = Race; members; slice = Some 1;
        target_cost = Some 0.0 };
      { Portfolio.mode = Round_robin; members; slice = Some 1;
        target_cost = None };
    ]

(* ---- spool fencing ------------------------------------------------ *)

let with_spool f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-fence-%d-%06x" (Unix.getpid ())
         (Random.bits () land 0xffffff))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f (Spool.create root))

let test_finish_fenced () =
  with_spool @@ fun spool ->
  let enqueue name =
    Atomic_io.write_string (Spool.job_path spool name) "{}\n"
  in
  let a =
    Lease.acquire ~id:"fence-a" ~dir:spool.Spool.daemons_dir ~ttl:60.0 ()
  in
  (* Happy path: the stamp still carries A's claim-time seq. *)
  enqueue "j1.json";
  Alcotest.(check bool) "A claims j1" true (Spool.claim ~owner:a spool "j1.json");
  let seq_a = Lease.seq a in
  Lease.refresh a;
  (* A refresh bumps the lease seq but not the stamp: the fence
     compares against the claim-time snapshot, so it still holds. *)
  Alcotest.(check string) "fenced finish commits" "committed"
    (Spool.commit_name
       (Spool.finish_fenced spool "j1.json" ~owner:a ~claim_seq:seq_a
          ~result_json:{|{"ok": 1}|}));
  Alcotest.(check bool) "result landed" true
    (Sys.file_exists (Spool.result_path spool "j1.json"));
  (* Stolen claim: B re-claims after a reclaim, so A's commit must
     abort without touching B's claim or writing a result. *)
  enqueue "j2.json";
  Alcotest.(check bool) "A claims j2" true (Spool.claim ~owner:a spool "j2.json");
  let seq_a2 = Lease.seq a in
  (* Simulate the reclaim-and-re-claim that a stalled A would miss. *)
  Spool.unclaim spool "j2.json";
  let b =
    Lease.acquire ~id:"fence-b" ~dir:spool.Spool.daemons_dir ~ttl:60.0 ()
  in
  Alcotest.(check bool) "B re-claims j2" true
    (Spool.claim ~owner:b spool "j2.json");
  let seq_b = Lease.seq b in
  Alcotest.(check string) "A's stale commit is fenced off" "fenced"
    (Spool.commit_name
       (Spool.finish_fenced spool "j2.json" ~owner:a ~claim_seq:seq_a2
          ~result_json:{|{"stale": 1}|}));
  Alcotest.(check bool) "no result was written by the loser" false
    (Sys.file_exists (Spool.result_path spool "j2.json"));
  Alcotest.(check bool) "B's claim survives" true
    (Sys.file_exists (Spool.work_path spool "j2.json"));
  Alcotest.(check bool) "B's own commit still goes through" true
    (Spool.committed
       (Spool.finish_fenced spool "j2.json" ~owner:b ~claim_seq:seq_b
          ~result_json:{|{"ok": 2}|}));
  match Atomic_io.read_file (Spool.result_path spool "j2.json") with
  | Ok text ->
    Alcotest.(check bool) "the surviving result is B's" true
      (String.length text > 0 && String.sub text 0 7 = {|{"ok": |})
  | Error msg -> Alcotest.fail msg

let suite =
  Repro_baseline.Engines.register_all ();
  [
    Alcotest.test_case "spec: grammar, canonical form, rejects" `Quick
      test_spec_parse;
    Alcotest.test_case "latch: one-shot stop interrupts" `Quick
      test_latched_stop;
    Alcotest.test_case "chunks: cut slices finish as uncut ones" `Quick
      test_cut_slices;
    Alcotest.test_case "container: version 1 is refused" `Quick
      test_version_one_refused;
    Alcotest.test_case "container: no best yet still resumes" `Quick
      test_no_best_yet;
    Alcotest.test_case
      "race: hedged target, winner, one-boundary cancellation" `Quick
      test_race_hedged_cancellation;
    Alcotest.test_case "race: faulted member degrades, best salvaged" `Quick
      test_faulted_member_degrades;
    Alcotest.test_case "race: all lanes lost raises" `Quick
      test_all_lanes_lost_fails;
    Alcotest.test_case "rr: a raising member faults only its lane" `Quick
      test_sequential_member_raises;
    Alcotest.test_case "rr: worker faults never reach a slice" `Quick
      test_worker_faults_skip_sequential_slices;
    Alcotest.test_case "chain: stages warm-start from the incumbent" `Quick
      test_chain_warm_start;
    Alcotest.test_case "seed-from: read_incumbent crosses engines" `Quick
      test_read_incumbent_and_warm_start;
    Alcotest.test_case "seed-from: portfolio checkpoints donate too" `Quick
      test_read_incumbent_portfolio_checkpoint;
    Alcotest.test_case "slicing: no file is written between slices" `Quick
      test_slicing_is_file_free;
    Alcotest.test_case "spool: result writes are lease-fenced" `Quick
      test_finish_fenced;
  ]
