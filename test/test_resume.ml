(* The determinism contract of checkpoint/resume for the annealer: a
   run interrupted at iteration k and resumed from its engine-driver
   checkpoint must finish bit-identical to the run that was never
   interrupted, and a checkpoint must only resume under the inputs and
   annealing configuration it was taken with. *)

module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module Checkpoint = Repro_util.Checkpoint
module Interrupt = Repro_util.Interrupt
module Atomic_io = Repro_util.Atomic_io

let with_temp f =
  let path = Filename.temp_file "repro_resume" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let config ?(warmup = 300) ?(schedule = Schedule.lam ~quality:0.003 ()) ~seed
    () =
  {
    (Explorer.sa_config 1_800) with
    Explorer.anneal = Annealer.for_budget ~seed ~warmup ~schedule 1_800;
  }

let checkpoint ?(every = 10_000) resume path = { Engine.path; every; resume }
let status (r : Explorer.result) = Engine.status_name r.Explorer.status
let solution_text s = Format.asprintf "%a" Solution.pp s

let check_same_outcome label (full : Explorer.result)
    (resumed : Explorer.result) =
  Alcotest.(check (float 0.0)) (label ^ ": best cost") full.Explorer.best_cost
    resumed.Explorer.best_cost;
  Alcotest.(check string) (label ^ ": best solution")
    (solution_text full.Explorer.best)
    (solution_text resumed.Explorer.best);
  Alcotest.(check (float 0.0)) (label ^ ": initial cost")
    full.Explorer.initial_cost resumed.Explorer.initial_cost;
  Alcotest.(check int) (label ^ ": iterations") full.Explorer.iterations_run
    resumed.Explorer.iterations_run;
  Alcotest.(check int) (label ^ ": accepted") full.Explorer.accepted
    resumed.Explorer.accepted;
  Alcotest.(check int) (label ^ ": infeasible") full.Explorer.infeasible
    resumed.Explorer.infeasible

(* A required resume that must be refused: one-line [Failure]. *)
let rejected label cfg app platform path =
  match
    Explorer.explore
      ~checkpoint:(checkpoint Engine.Resume_required path)
      cfg app platform
  with
  | _ -> Alcotest.failf "%s: checkpoint accepted" label
  | exception Failure msg ->
    Alcotest.(check bool) (label ^ ": one-line error") false
      (String.contains msg '\n');
    msg

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
  scan 0

let test_interrupt_then_resume () =
  with_temp @@ fun path ->
  let cfg = config ~seed:11 () in
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let full = Explorer.explore cfg app platform in
  Alcotest.(check string) "full run completes" "complete" (status full);
  (* Interrupt mid-run: the stop probe fires after 700 boundaries, the
     engine flushes a final checkpoint and reports Interrupted. *)
  let polls = ref 0 in
  let interrupted =
    Explorer.explore
      ~checkpoint:(checkpoint Engine.Resume_never path)
      ~should_stop:(fun () -> incr polls; !polls > 700)
      cfg app platform
  in
  Alcotest.(check string) "interrupted status" "interrupted"
    (status interrupted);
  Alcotest.(check bool) "stopped early" true
    (interrupted.Explorer.iterations_run < full.Explorer.iterations_run);
  Alcotest.(check bool) "checkpoint flushed" true (Sys.file_exists path);
  (* Resume from the flushed checkpoint and finish. *)
  let resumed =
    Explorer.explore ~checkpoint:(checkpoint Engine.Resume_required path) cfg
      app platform
  in
  Alcotest.(check string) "resumed run completes" "complete" (status resumed);
  check_same_outcome "interrupt+resume" full resumed

let test_periodic_checkpoint_resume () =
  with_temp @@ fun path ->
  let cfg = config ~seed:23 () in
  let app = Md.app () in
  let platform = Md.platform ~n_clb:1000 () in
  let full = Explorer.explore cfg app platform in
  (* Same run with a periodic sink: the file ends up holding the last
     periodic snapshot, and the checkpointed run itself is unperturbed. *)
  let checkpointed =
    Explorer.explore
      ~checkpoint:(checkpoint ~every:400 Engine.Resume_never path)
      cfg app platform
  in
  check_same_outcome "sink does not perturb" full checkpointed;
  let resumed =
    Explorer.explore ~checkpoint:(checkpoint Engine.Resume_required path) cfg
      app platform
  in
  check_same_outcome "periodic resume" full resumed

(* Checkpoint of a run of [cfg] on the 2000-CLB platform. *)
let write_checkpoint cfg path =
  ignore
    (Explorer.explore
       ~checkpoint:(checkpoint ~every:500 Engine.Resume_never path)
       cfg (Md.app ()) (Md.platform ~n_clb:2000 ()))

let test_fingerprint_mismatch () =
  with_temp @@ fun path ->
  write_checkpoint (config ~seed:3 ()) path;
  let app = Md.app () in
  ignore
    (rejected "wrong seed" (config ~seed:4 ()) app (Md.platform ~n_clb:2000 ())
       path);
  ignore
    (rejected "wrong platform" (config ~seed:3 ()) app
       (Md.platform ~n_clb:999 ()) path)

(* Same seed and same total budget, so the driver's fingerprint agrees;
   the chain state's configuration line must refuse the resume. *)
let test_schedule_mismatch () =
  with_temp @@ fun path ->
  write_checkpoint (config ~seed:3 ()) path;
  List.iter
    (fun (schedule, needle) ->
      let msg =
        rejected needle (config ~schedule ~seed:3 ()) (Md.app ())
          (Md.platform ~n_clb:2000 ()) path
      in
      Alcotest.(check bool) ("names " ^ needle) true (contains msg needle))
    [
      (Schedule.swartz (), "swartz");
      (Schedule.lam ~quality:0.01 (), "quality 0.01");
    ]

let test_warmup_mismatch () =
  with_temp @@ fun path ->
  write_checkpoint (config ~seed:3 ()) path;
  let msg =
    rejected "other warmup" (config ~warmup:200 ~seed:3 ()) (Md.app ())
      (Md.platform ~n_clb:2000 ()) path
  in
  Alcotest.(check bool) "names the warmup" true (contains msg "warmup 200")

let test_corrupt_checkpoint_rejected () =
  with_temp @@ fun path ->
  let cfg = config ~seed:5 () in
  write_checkpoint cfg path;
  let contents =
    match Atomic_io.read_file path with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  let mangled = Bytes.of_string contents in
  let i = String.length contents / 2 in
  Bytes.set mangled i (Char.chr (Char.code (Bytes.get mangled i) lxor 1));
  Atomic_io.write_string path (Bytes.to_string mangled);
  ignore (rejected "corrupt" cfg (Md.app ()) (Md.platform ~n_clb:2000 ()) path)

(* Snapshots of the annealer's former private loop had their own kind.
   A required resume refuses them; an opportunistic one — what a daemon
   job checkpointed by an older build meets — starts over cleanly. *)
let test_legacy_checkpoint () =
  with_temp @@ fun path ->
  let cfg = config ~seed:13 () in
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  Checkpoint.save path ~kind:"dse-run" "fingerprint 0\n";
  let msg = rejected "legacy kind" cfg app platform path in
  Alcotest.(check bool) "names the kind" true (contains msg "dse-run");
  let clean = Explorer.explore cfg app platform in
  let fallback =
    Explorer.explore ~checkpoint:(checkpoint Engine.Resume_if_exists path) cfg
      app platform
  in
  check_same_outcome "legacy fallback" clean fallback

let test_interrupt_request_flag () =
  (* The programmatic interruption path used by the CLIs: a pending
     request stops the run at the very first boundary. *)
  Interrupt.clear ();
  Interrupt.request ();
  Alcotest.(check bool) "pending" true (Interrupt.pending ());
  let result =
    Explorer.explore ~should_stop:Interrupt.pending (config ~seed:7 ())
      (Md.app ()) (Md.platform ~n_clb:2000 ())
  in
  Interrupt.clear ();
  Alcotest.(check bool) "cleared" false (Interrupt.pending ());
  Alcotest.(check string) "stopped immediately" "interrupted" (status result);
  Alcotest.(check int) "zero iterations" 0 result.Explorer.iterations_run

let suite =
  [
    Alcotest.test_case "interrupt at k then resume ≡ uninterrupted" `Quick
      test_interrupt_then_resume;
    Alcotest.test_case "periodic checkpoint resume ≡ uninterrupted" `Quick
      test_periodic_checkpoint_resume;
    Alcotest.test_case "fingerprint mismatch rejected" `Quick
      test_fingerprint_mismatch;
    Alcotest.test_case "schedule mismatch rejected" `Quick
      test_schedule_mismatch;
    Alcotest.test_case "warmup mismatch rejected" `Quick test_warmup_mismatch;
    Alcotest.test_case "corrupt checkpoint rejected" `Quick
      test_corrupt_checkpoint_rejected;
    Alcotest.test_case "legacy dse-run checkpoint" `Quick
      test_legacy_checkpoint;
    Alcotest.test_case "interrupt request flag" `Quick
      test_interrupt_request_flag;
  ]
