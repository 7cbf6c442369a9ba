(* Fleet safety: leases, lease-fenced reclaim, campaign manifests, and
   several daemons draining one spool — contention and crash drills. *)

module Atomic_io = Repro_util.Atomic_io
module Clock = Repro_util.Clock
module Fault = Repro_util.Fault
module Json = Repro_util.Json_lite
module Campaign = Repro_serve.Campaign
module Daemon = Repro_serve.Daemon
module Lease = Repro_serve.Lease
module Spool = Repro_serve.Spool

let with_spool f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-fleet-%d-%06x" (Unix.getpid ())
         (Random.bits () land 0xffffff))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f (Spool.create root))

let enqueue spool name text =
  Atomic_io.write_string (Spool.job_path spool name) text

let tiny_job ?(seed = 2) () =
  Printf.sprintf
    "{\"app\": \"motion_detection\", \"iters\": 150, \"warmup\": 50, \
     \"seed\": %d}"
    seed

let read_result spool name =
  match Atomic_io.read_file (Spool.result_path spool name) with
  | Error msg -> Alcotest.fail msg
  | Ok text -> (
    match Json.parse_obj text with
    | Error msg -> Alcotest.fail msg
    | Ok fields -> fields)

(* The crash drills below simulate dead daemons inside this live test
   process, so the dead-pid shortcut never applies: staleness must
   come from ttl expiry on a deliberately tiny lease. *)
let quiet_config =
  {
    Daemon.default_config with
    Daemon.once = true;
    retries = 0;
    backoff = None;
    poll_interval = 0.01;
    lease_ttl = 0.05;
  }

(* ---- Lease -------------------------------------------------------- *)

let test_lease_ids () =
  let a = Lease.fresh_id () and b = Lease.fresh_id () in
  Alcotest.(check bool) "fresh ids distinct" true (a <> b);
  Alcotest.(check bool) "fresh id validates" true
    (Result.is_ok (Lease.validate_id a));
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (Result.is_error (Lease.validate_id bad)))
    [ ""; ".hidden"; "a/b"; "a b"; "a\nb" ]

let test_lease_lifecycle () =
  with_spool @@ fun spool ->
  let dir = spool.Spool.daemons_dir in
  let lease = Lease.acquire ~id:"unit-d1" ~dir ~ttl:10.0 () in
  Alcotest.(check string) "id honoured" "unit-d1" (Lease.id lease);
  Alcotest.(check int) "acquire writes seq 0" 0 (Lease.seq lease);
  Lease.refresh ~fields:[ ("state", Json.Str "running") ] lease;
  Lease.refresh lease;
  Alcotest.(check int) "refresh bumps seq" 2 (Lease.seq lease);
  (match Lease.load (Lease.path lease) with
   | Error msg -> Alcotest.fail msg
   | Ok (v : Lease.view) ->
     Alcotest.(check string) "file id" "unit-d1" v.Lease.id;
     Alcotest.(check int) "file seq" 2 v.Lease.seq;
     Alcotest.(check bool) "not released" false v.Lease.released;
     Alcotest.(check bool) "fresh lease is alive" true
       (Lease.alive ~now:(Clock.wall ()) v));
  Lease.release ~fields:[ ("state", Json.Str "drained") ] lease;
  match Lease.load (Lease.path lease) with
  | Error msg -> Alcotest.fail msg
  | Ok (v : Lease.view) ->
    Alcotest.(check bool) "released" true v.Lease.released;
    Alcotest.(check bool) "released lease is dead" false
      (Lease.alive ~now:(Clock.wall ()) v);
    Alcotest.(check (option string)) "fields kept as last heartbeat"
      (Some "drained")
      (Json.str_field v.Lease.fields "state")

let test_lease_aliveness () =
  with_spool @@ fun spool ->
  let dir = spool.Spool.daemons_dir in
  let lease = Lease.acquire ~id:"unit-d2" ~dir ~ttl:0.02 () in
  (match Lease.load (Lease.path lease) with
   | Error msg -> Alcotest.fail msg
   | Ok v ->
     Unix.sleepf 0.05;
     Alcotest.(check bool) "expired ttl is dead" false
       (Lease.alive ~now:(Clock.wall ()) v);
     (* A dead pid on this host short-circuits the ttl wait. *)
     let dead_pid = { v with Lease.pid = 0x3ffffffe; updated = Clock.wall () } in
     Alcotest.(check bool) "dead pid is dead even within ttl" false
       (Lease.alive ~now:(Clock.wall ()) dead_pid);
     (* A remote host's pid cannot be probed: ttl alone decides. *)
     let remote = { dead_pid with Lease.host = "elsewhere" } in
     Alcotest.(check bool) "remote host falls back to ttl" true
       (Lease.alive ~now:(Clock.wall ()) remote))

let test_lease_list_skips_damage () =
  with_spool @@ fun spool ->
  let dir = spool.Spool.daemons_dir in
  ignore (Lease.acquire ~id:"ok-d" ~dir ~ttl:5.0 ());
  Atomic_io.write_string (Filename.concat dir "broken.json") "not json";
  let listed = Lease.list ~dir in
  Alcotest.(check int) "both files listed" 2 (List.length listed);
  let oks = List.filter (fun (_, v) -> Result.is_ok v) listed in
  Alcotest.(check int) "one parses" 1 (List.length oks)

(* ---- reclaim rules ------------------------------------------------ *)

let test_reclaim_protects_live_owner () =
  with_spool @@ fun spool ->
  let lease =
    Lease.acquire ~id:"live-d" ~dir:spool.Spool.daemons_dir ~ttl:60.0 ()
  in
  enqueue spool "job.json" "{}";
  Alcotest.(check bool) "claimed" true (Spool.claim ~owner:lease spool "job.json");
  let requeued =
    Spool.reclaim ~self:"someone-else" ~now:(Clock.wall ()) ~grace:0.0 spool
  in
  Alcotest.(check (list string)) "live peer's claim untouched" [] requeued;
  Alcotest.(check (list string)) "still claimed" [ "job.json" ]
    (Spool.in_work spool)

let test_reclaim_requeues_dead_owner () =
  with_spool @@ fun spool ->
  let lease =
    Lease.acquire ~id:"dead-d" ~dir:spool.Spool.daemons_dir ~ttl:0.01 ()
  in
  enqueue spool "job.json" "{}";
  Alcotest.(check bool) "claimed" true (Spool.claim ~owner:lease spool "job.json");
  Atomic_io.write_string (Spool.checkpoint_path spool "job.json") "ckpt";
  Unix.sleepf 0.03;
  let requeued =
    Spool.reclaim ~self:"someone-else" ~now:(Clock.wall ()) ~grace:60.0 spool
  in
  Alcotest.(check (list string)) "dead owner's claim re-queued" [ "job.json" ]
    requeued;
  Alcotest.(check (list string)) "back in the queue" [ "job.json" ]
    (Spool.pending spool);
  Alcotest.(check bool) "checkpoint kept for the resume" true
    (Sys.file_exists (Spool.checkpoint_path spool "job.json"));
  Alcotest.(check bool) "stamp removed" false
    (Sys.file_exists (Spool.claim_stamp_path spool "job.json"))

let test_reclaim_skips_self () =
  with_spool @@ fun spool ->
  let lease =
    Lease.acquire ~id:"self-d" ~dir:spool.Spool.daemons_dir ~ttl:0.01 ()
  in
  enqueue spool "job.json" "{}";
  Alcotest.(check bool) "claimed" true (Spool.claim ~owner:lease spool "job.json");
  Unix.sleepf 0.03;
  (* Even with its lease expired on disk, a daemon never reclaims its
     own in-flight claim. *)
  let requeued =
    Spool.reclaim ~self:"self-d" ~now:(Clock.wall ()) ~grace:0.0 spool
  in
  Alcotest.(check (list string)) "own claim untouched" [] requeued

let test_reclaim_stampless_grace () =
  with_spool @@ fun spool ->
  enqueue spool "job.json" "{}";
  Alcotest.(check bool) "claimed without owner" true
    (Spool.claim spool "job.json");
  let now = Clock.wall () in
  Alcotest.(check (list string)) "young stamp-less claim left alone" []
    (Spool.reclaim ~now ~grace:60.0 spool);
  Alcotest.(check (list string)) "re-queued once past the grace"
    [ "job.json" ]
    (Spool.reclaim ~now:(now +. 120.0) ~grace:60.0 spool)

let test_reclaim_cleans_finished_claim () =
  with_spool @@ fun spool ->
  enqueue spool "job.json" "{}";
  Alcotest.(check bool) "claimed" true (Spool.claim spool "job.json");
  Atomic_io.write_string (Spool.result_path spool "job.json") "{}\n";
  let requeued = Spool.reclaim ~now:(Clock.wall ()) ~grace:0.0 spool in
  Alcotest.(check (list string)) "finished claim is cleanup, not a re-run"
    [] requeued;
  Alcotest.(check (list string)) "claim swept" [] (Spool.in_work spool);
  Alcotest.(check (list string)) "not re-queued" [] (Spool.pending spool)

(* ---- campaign manifests ------------------------------------------- *)

let manifest =
  "{\"campaign\": \"night\", \"jobs\": [\n\
  \  {\"name\": \"n1\", \"app\": \"motion_detection\", \"iters\": 150, \
   \"warmup\": 50, \"seed\": 3},\n\
  \  {\"name\": \"n2\", \"app\": \"motion_detection\", \"iters\": 150, \
   \"warmup\": 50, \"seed\": 4}\n\
   ]}"

let parsed text =
  match Campaign.of_json text with
  | Ok t -> t
  | Error msg -> Alcotest.fail msg

let test_campaign_parse () =
  let t = parsed manifest in
  Alcotest.(check string) "name" "night" t.Campaign.name;
  Alcotest.(check int) "two entries" 2 (List.length t.Campaign.entries);
  Alcotest.(check bool) "default predicate" true
    (t.Campaign.predicate = Campaign.All_filed);
  let e = List.hd t.Campaign.entries in
  Alcotest.(check string) "entry name" "n1" e.Campaign.name;
  Alcotest.(check int) "entry seed parsed" 3 e.Campaign.job.Repro_serve.Job.seed;
  Alcotest.(check bool) "name stripped from the written spec" false
    (Option.is_some
       (Result.bind (Json.parse_obj e.Campaign.text) (fun fields ->
            Option.to_result ~none:"" (Json.find fields "name"))
        |> Result.to_option))

let reject text fragment =
  match Campaign.of_json text with
  | Ok _ -> Alcotest.fail ("accepted: " ^ text)
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%S names the problem (got %S)" fragment msg)
      true (contains msg fragment)

let test_campaign_rejects () =
  reject "{\"jobs\": []}" "no \"campaign\"";
  reject "{\"campaign\": \"c\", \"jobs\": []}" "at least one job";
  reject "{\"campaign\": \"c\"}" "no \"jobs\"";
  reject "{\"campaign\": \"c\", \"typo\": 1, \"jobs\": [{}]}" "unknown campaign field";
  reject
    "{\"campaign\": \"c\", \"complete_when\": \"eventually\", \"jobs\": [{}]}"
    "all-filed|all-results";
  reject "{\"campaign\": \"c\", \"jobs\": [{\"app\": \"sobel\"}]}"
    "declares no \"name\"";
  reject
    "{\"campaign\": \"c\", \"jobs\": [{\"name\": \"a/b\", \"app\": \"sobel\"}]}"
    "letters, digits";
  reject
    ("{\"campaign\": \"c\", \"jobs\": ["
     ^ "{\"name\": \"dup\", \"app\": \"sobel\"},"
     ^ "{\"name\": \"dup\", \"app\": \"sobel\"}]}")
    "appears twice";
  (* A poison entry rejects the manifest whole — nothing half-enqueues. *)
  reject
    "{\"campaign\": \"c\", \"jobs\": [{\"name\": \"p\", \"bogus\": 1}]}"
    "\"p\""

let test_campaign_submit_idempotent () =
  with_spool @@ fun spool ->
  let t = parsed manifest in
  let first = Campaign.submit t spool in
  Alcotest.(check (list string)) "first submit enqueues all"
    [ "n1"; "n2" ] first.Campaign.enqueued;
  let again = Campaign.submit t spool in
  Alcotest.(check (list string)) "re-submit enqueues nothing" []
    again.Campaign.enqueued;
  Alcotest.(check (list string)) "re-submit skips all" [ "n1"; "n2" ]
    again.Campaign.skipped;
  (* A filed job stays done across re-submits; a lost one is re-queued. *)
  Sys.remove (Spool.job_path spool "n1.json");
  Atomic_io.write_string (Spool.result_path spool "n1.json") "{}\n";
  Sys.remove (Spool.job_path spool "n2.json");
  let third = Campaign.submit t spool in
  Alcotest.(check (list string)) "only the lost job re-enqueued" [ "n2" ]
    third.Campaign.enqueued

let test_campaign_report () =
  with_spool @@ fun spool ->
  let t =
    parsed
      ("{\"campaign\": \"pareto\", \"jobs\": [\n"
       ^ "{\"name\": \"small\", \"app\": \"sobel\", \"clbs\": 900},\n"
       ^ "{\"name\": \"mid\", \"app\": \"sobel\", \"clbs\": 1400},\n"
       ^ "{\"name\": \"big\", \"app\": \"sobel\", \"clbs\": 2000},\n"
       ^ "{\"name\": \"bad\", \"app\": \"sobel\", \"clbs\": 2000},\n"
       ^ "{\"name\": \"late\", \"app\": \"sobel\", \"clbs\": 2000}\n"
       ^ "]}")
  in
  let file name json =
    Atomic_io.write_string (Spool.result_path spool (name ^ ".json"))
      (Json.to_string (Json.Obj json) ^ "\n")
  in
  file "small"
    [ ("status", Json.Str "complete"); ("makespan", Json.Num 40.0) ];
  (* Dominated: more CLBs, worse makespan. *)
  file "mid" [ ("status", Json.Str "complete"); ("makespan", Json.Num 45.0) ];
  file "big"
    [ ("status", Json.Str "timed-out"); ("makespan", Json.Num 30.0) ];
  Atomic_io.write_string (Spool.failed_path spool "bad.json") "{}\n";
  Atomic_io.write_string
    (Spool.failed_path spool "bad.reason.json")
    "{\"reason\": \"does not parse\", \"attempts\": 1, \"daemon_id\": \
     \"d0\"}\n";
  enqueue spool "late.json" "{\"app\": \"sobel\"}";
  let report =
    match Campaign.report spool t with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "report is not an object"
  in
  let int_field name =
    match Json.int_field report name with
    | Some n -> n
    | None -> Alcotest.fail ("report lost " ^ name)
  in
  Alcotest.(check int) "total" 5 (int_field "total");
  Alcotest.(check int) "queued" 1 (int_field "queued");
  Alcotest.(check int) "completed" 2 (int_field "completed");
  Alcotest.(check int) "timed_out" 1 (int_field "timed_out");
  Alcotest.(check int) "quarantined" 1 (int_field "quarantined");
  Alcotest.(check (option bool)) "a queued job means not done" (Some false)
    (Json.bool_field report "done");
  (match Json.find report "pareto" with
   | Some (Json.Arr points) ->
     let names =
       List.filter_map (function
         | Json.Obj f -> Json.str_field f "job"
         | _ -> None)
         points
     in
     Alcotest.(check (list string))
       "pareto keeps the non-dominated frontier, smallest device first"
       [ "small"; "big" ] names
   | _ -> Alcotest.fail "report lost the pareto set");
  (* With the straggler filed, the default predicate turns done even
     though one job is quarantined. *)
  Sys.remove (Spool.job_path spool "late.json");
  file "late" [ ("status", Json.Str "complete"); ("makespan", Json.Num 50.0) ];
  match Campaign.report spool t with
  | Json.Obj fields ->
    Alcotest.(check (option bool)) "all-filed done" (Some true)
      (Json.bool_field fields "done")
  | _ -> Alcotest.fail "report is not an object"

(* ---- fleet contention --------------------------------------------- *)

let test_fleet_contention () =
  with_spool @@ fun spool ->
  let n = 30 in
  let names =
    List.init n (fun i -> Printf.sprintf "j%02d.json" i)
  in
  List.iteri (fun i name -> enqueue spool name (tiny_job ~seed:(i + 1) ())) names;
  enqueue spool "poison.json" "{\"app\": \"motion_detection\", \"bogus\": 1}";
  let all_names = "poison.json" :: names in
  (* A long ttl: three live daemons racing one queue, nothing may look
     stale, so every claim must land in exactly one outcome through
     rename-contention alone. *)
  let config = { quiet_config with Daemon.lease_ttl = 30.0 } in
  let drain () = Daemon.run config spool in
  let d1 = Domain.spawn drain in
  let d2 = Domain.spawn drain in
  let o3, s3 = drain () in
  let o1, s1 = Domain.join d1 in
  let o2, s2 = Domain.join d2 in
  List.iter
    (fun o ->
      Alcotest.(check string) "daemon drained" "drained" (Daemon.outcome_name o))
    [ o1; o2; o3 ];
  let sum f = f s1 + f s2 + f s3 in
  Printf.eprintf
    "contention sums: claimed %d completed %d quarantined %d requeued %d \
     recovered %d fenced %d fenced_late %d repaired %d\n%!"
    (sum (fun s -> s.Daemon.claimed))
    (sum (fun s -> s.Daemon.completed))
    (sum (fun s -> s.Daemon.quarantined))
    (sum (fun s -> s.Daemon.requeued))
    (sum (fun s -> s.Daemon.recovered))
    (sum (fun s -> s.Daemon.fenced))
    (sum (fun s -> s.Daemon.fenced_late))
    (sum (fun s -> s.Daemon.repaired));
  Alcotest.(check int) "every job claimed exactly once" (n + 1)
    (sum (fun s -> s.Daemon.claimed));
  Alcotest.(check int) "all real jobs completed" n
    (sum (fun s -> s.Daemon.completed));
  Alcotest.(check int) "poison quarantined once" 1
    (sum (fun s -> s.Daemon.quarantined));
  Alcotest.(check int) "nothing re-queued" 0 (sum (fun s -> s.Daemon.requeued));
  Alcotest.(check int) "nothing reclaimed" 0
    (sum (fun s -> s.Daemon.recovered));
  List.iter
    (fun name ->
      let filed = Sys.file_exists (Spool.result_path spool name) in
      let failed = Sys.file_exists (Spool.failed_path spool name) in
      Alcotest.(check bool)
        (Printf.sprintf "%s in exactly one outcome dir" name)
        true (filed <> failed))
    all_names;
  Alcotest.(check int) "queue empty" 0 (Spool.queue_depth spool);
  Alcotest.(check (list string)) "work/ empty" [] (Spool.in_work spool);
  (* Three leases on file, all cleanly released. *)
  let leases = Lease.list ~dir:spool.Spool.daemons_dir in
  Alcotest.(check int) "three leases" 3 (List.length leases);
  List.iter
    (fun (file, view) ->
      match view with
      | Error msg -> Alcotest.fail (file ^ ": " ^ msg)
      | Ok (v : Lease.view) ->
        Alcotest.(check bool) (file ^ " released") true v.Lease.released)
    leases

(* ---- die while holding the lease ---------------------------------- *)

let test_lease_reclaim_drill_bit_identical () =
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  (* An SA engine job: the uniform engine path checkpoints under the
     driver and resumes bit-identically — the property that makes the
     reclaimed re-run equal the uninterrupted one.  One chain and two
     run the same path; the fault lands in chain 0 either way. *)
  let job_text restarts =
    Printf.sprintf
      "{\"app\": \"motion_detection\", \"engine\": \"sa\", \"iters\": 2000, \
       \"seed\": 11, \"restarts\": %d}"
      restarts
  in
  let config = { quiet_config with Daemon.checkpoint_every = 50 } in
  List.iter
    (fun restarts ->
      let label what = Printf.sprintf "restarts %d: %s" restarts what in
      let reference =
        with_spool @@ fun spool ->
        enqueue spool "drill.json" (job_text restarts);
        ignore (Daemon.run config spool);
        match Json.str_field (read_result spool "drill.json") "solution" with
        | Some crc -> crc
        | None -> Alcotest.fail (label "reference result lost its solution CRC")
      in
      with_spool @@ fun spool ->
      enqueue spool "drill.json" (job_text restarts);
      (* Daemon A dies mid-job — evaluation 600 of the run — with its
         claim stamped, its lease on file and checkpoints flushed. *)
      Fault.arm_point ~site:Fault.Eval ~index:600;
      (match Daemon.run config spool with
       | _ -> Alcotest.fail (label "armed eval fault did not crash the daemon")
       | exception Fault.Injected _ -> ());
      Fault.disarm ();
      Alcotest.(check (list string)) (label "claim left behind")
        [ "drill.json" ] (Spool.in_work spool);
      Alcotest.(check bool) (label "checkpoint flushed before the crash") true
        (Sys.file_exists
           (if restarts = 1 then Spool.checkpoint_path spool "drill.json"
            else Spool.restart_checkpoint_path spool "drill.json" 0));
      Alcotest.(check bool) (label "claim is lease-stamped") true
        (Result.is_ok (Spool.read_claim_stamp spool "drill.json"));
      (* Daemon B starts after A's lease expires: reclaim re-queues the
         orphan with its checkpoints, the re-run resumes and completes. *)
      Unix.sleepf 0.1;
      let outcome, stats = Daemon.run config spool in
      Alcotest.(check string) (label "peer drained") "drained"
        (Daemon.outcome_name outcome);
      Alcotest.(check int) (label "orphan reclaimed") 1 stats.Daemon.recovered;
      Alcotest.(check int) (label "job completed") 1 stats.Daemon.completed;
      let fields = read_result spool "drill.json" in
      Alcotest.(check (option string)) (label "status complete")
        (Some "complete")
        (Json.str_field fields "status");
      Alcotest.(check (option string))
        (label "resumed solution is bit-identical to the uninterrupted run")
        (Some reference)
        (Json.str_field fields "solution");
      Alcotest.(check (list string)) (label "work/ clean") []
        (Spool.in_work spool))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "lease ids are unique and validated" `Quick
      test_lease_ids;
    Alcotest.test_case "lease lifecycle: acquire/refresh/release" `Quick
      test_lease_lifecycle;
    Alcotest.test_case "lease aliveness: ttl, dead pid, remote host" `Quick
      test_lease_aliveness;
    Alcotest.test_case "lease list surfaces damaged files" `Quick
      test_lease_list_skips_damage;
    Alcotest.test_case "reclaim never touches a live peer's claim" `Quick
      test_reclaim_protects_live_owner;
    Alcotest.test_case "reclaim re-queues a dead owner's claim" `Quick
      test_reclaim_requeues_dead_owner;
    Alcotest.test_case "reclaim skips the caller's own claims" `Quick
      test_reclaim_skips_self;
    Alcotest.test_case "stamp-less claims wait out the grace" `Quick
      test_reclaim_stampless_grace;
    Alcotest.test_case "finished claims are cleanup, not re-runs" `Quick
      test_reclaim_cleans_finished_claim;
    Alcotest.test_case "campaign manifest parses" `Quick test_campaign_parse;
    Alcotest.test_case "campaign rejects bad manifests whole" `Quick
      test_campaign_rejects;
    Alcotest.test_case "campaign submit is idempotent" `Quick
      test_campaign_submit_idempotent;
    Alcotest.test_case "campaign report aggregates and finds the frontier"
      `Quick test_campaign_report;
    Alcotest.test_case "three daemons drain one spool without losses" `Slow
      test_fleet_contention;
    Alcotest.test_case "dead daemon's job reclaimed and resumed bit-identically"
      `Slow test_lease_reclaim_drill_bit_identical;
  ]
