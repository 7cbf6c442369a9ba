(* The seeded chaos drill behind [make chaoscheck].

   One deterministic (seed-driven) interleaving of every failure mode
   the fleet protocol claims to survive: daemons killed mid-job at
   injected evaluation faults, corrupted and truncated checkpoint and
   result writes, a clock-skewed remote daemon that stops refreshing
   while holding a claim, an fsck pass crashed mid-repair, and a
   multi-daemon drain over the wreckage.  The drill then asserts the
   invariants DESIGN.md §5 promises: no job lost or duplicated, every
   job in exactly one outcome directory, resumed solutions
   bit-identical to an uninterrupted reference run, and fsck
   converging in one repair pass (the second audit is clean).

   Usage: chaos_main.exe <seed>.  Equal seeds replay the same drill. *)

module Atomic_io = Repro_util.Atomic_io
module Clock = Repro_util.Clock
module Fault = Repro_util.Fault
module Json = Repro_util.Json_lite
module Rng = Repro_util.Rng
module Daemon = Repro_serve.Daemon
module Fsck = Repro_serve.Fsck
module Spool = Repro_serve.Spool

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("chaos: FAIL: " ^ msg);
      exit 1)
    fmt

let say fmt = Printf.ksprintf (fun msg -> print_endline ("chaos: " ^ msg)) fmt
let check what cond = if not cond then fail "%s" what

(* Four jobs across three priority bands; the SA engine checkpoints
   under the daemon driver and resumes bit-identically, which is what
   makes the reference-CRC comparison meaningful. *)
let jobs = [ ("c1", 0, 11); ("c2", 0, 12); ("c3", 1, 13); ("c4", 2, 14) ]

let job_text seed =
  Printf.sprintf
    "{\"app\": \"motion_detection\", \"engine\": \"sa\", \"iters\": 1200, \
     \"seed\": %d}\n"
    seed

let with_spool tag f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-chaos-%s-%d" tag (Unix.getpid ()))
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)));
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f (Spool.create root))

let config =
  {
    Daemon.default_config with
    Daemon.once = true;
    retries = 0;
    backoff = None;
    poll_interval = 0.01;
    lease_ttl = 0.3;
    checkpoint_every = 50;
    promote_after = Some 0.2;
  }

let enqueue_all spool =
  List.iter
    (fun (name, band, seed) ->
      Spool.enqueue ~priority:band spool ~name:(name ^ ".json")
        ~text:(job_text seed))
    jobs

let solution_crc spool name =
  match
    Result.bind
      (Atomic_io.read_file (Spool.result_path spool (name ^ ".json")))
      Json.parse_obj
  with
  | Error msg -> fail "%s: unreadable result: %s" name msg
  | Ok fields -> (
    match (Json.str_field fields "status", Json.str_field fields "solution")
    with
    | Some "complete", Some crc -> crc
    | status, _ ->
      fail "%s: result status %s, want complete" name
        (Option.value ~default:"<none>" status))

let () =
  let seed =
    match Sys.argv with
    | [| _; s |] -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> fail "seed %S wants an integer" s)
    | _ -> fail "usage: chaos_main.exe <seed>"
  in
  Repro_baseline.Engines.register_all ();
  let rng = Rng.create (0x5EED0 + seed) in

  (* Reference: the same four jobs through one undisturbed daemon. *)
  let reference =
    with_spool "ref" @@ fun spool ->
    enqueue_all spool;
    let outcome, _ = Daemon.run config spool in
    check "reference daemon drained" (outcome = Daemon.Drained);
    List.map (fun (name, _, _) -> (name, solution_crc spool name)) jobs
  in
  say "seed %d: reference CRCs collected" seed;

  with_spool "drill" @@ fun spool ->
  enqueue_all spool;

  (* Phase 1: kill daemons mid-job at seeded evaluation faults.  Each
     crash leaves a stamped claim, flushed checkpoints and an
     unreleased lease; the next round begins by reclaiming it (the
     lease ttl is 0.3 s, waited out between rounds). *)
  let rounds = 2 + Rng.int rng 2 in
  for round = 1 to rounds do
    let index = Rng.int_in rng 150 900 in
    Fault.arm_point ~site:Fault.Eval ~index;
    (match Daemon.run config spool with
     | _ -> say "round %d: drained before eval fault %d" round index
     | exception Fault.Injected _ ->
       say "round %d: daemon killed at eval %d" round index);
    Fault.disarm ();
    Unix.sleepf 0.35
  done;

  (* Phase 2: corrupt the wreckage.  Every mutation here is one of the
     damage shapes fsck audits for. *)
  let claimed = Spool.in_work spool in
  let queued = Spool.pending spool in
  (* Truncate a flushed checkpoint mid-payload. *)
  (match
     List.sort compare
       (List.filter
          (fun e -> Filename.check_suffix e ".ckpt")
          (Array.to_list (Sys.readdir spool.Spool.work_dir)))
   with
   | [] -> say "no checkpoint to corrupt"
   | ck :: _ -> (
     let path = Filename.concat spool.Spool.work_dir ck in
     match Atomic_io.read_file path with
     | Error _ -> ()
     | Ok bytes ->
       let keep = max 1 (String.length bytes / 2) in
       Atomic_io.write_string path (String.sub bytes 0 keep);
       say "truncated checkpoint %s to %d bytes" ck keep));
  (* A torn (half-written) result beside a live claimed or queued
     copy. *)
  (match (claimed, queued) with
   | name :: _, _ | [], name :: _ ->
     Atomic_io.write_string (Spool.result_path spool name) "{\"torn\": ";
     say "tore a result beside %s" name
   | [], [] -> say "nothing left to tear a result beside");
  (* A zero-byte job a crashed producer left behind. *)
  Spool.enqueue ~priority:(Rng.int rng 3) spool ~name:"chaos-zero.json"
    ~text:"";
  (* An orphaned claim stamp and a stale atomic-write temp file. *)
  Atomic_io.write_string (Spool.claim_stamp_path spool "ghost.json") "{}";
  let temp = Filename.concat spool.Spool.work_dir "junk.tmp.7" in
  Atomic_io.write_string temp "partial";
  Unix.utimes temp (Clock.wall () -. 120.0) (Clock.wall () -. 120.0);
  (* A clock-skewed remote daemon: it claimed a job, stamped itself
     1e6 seconds into the future, and died.  Its pid is on another
     host and its lease looks eternally fresh — only the observation
     ledger (seq stagnant across a full ttl of observer time) can
     prove it dead. *)
  let skewed =
    match Spool.pending_banded spool with
    | [] -> None
    | banded -> (
      match
        List.filter (fun (_, n) -> n <> "chaos-zero.json") banded
      with
      | [] -> None
      | pick :: _ ->
        let band, name = pick in
        let src = Filename.concat (Spool.band_dir spool band) name in
        (match Unix.rename src (Spool.work_path spool name) with
         | () -> ()
         | exception Unix.Unix_error _ -> fail "skew move lost %s" name);
        Atomic_io.write_string
          (Spool.claim_stamp_path spool name)
          (Json.obj
             [
               ("owner", Json.Str "skew-remote");
               ("seq", Json.num_int 3);
               ("claimed_at", Json.Num (Clock.wall ()));
               ("band", Json.num_int band);
             ]
          ^ "\n");
        Atomic_io.write_string
          (Filename.concat spool.Spool.daemons_dir "skew-remote.json")
          (Json.obj
             [
               ("id", Json.Str "skew-remote");
               ("host", Json.Str "chaos-remote");
               ("pid", Json.num_int 4242);
               ("seq", Json.num_int 3);
               ("ttl", Json.Num 0.3);
               ("updated", Json.Num (Clock.wall () +. 1.0e6));
             ]
          ^ "\n");
        say "skewed remote daemon holds %s (band %d)" name band;
        Some name)
  in

  (* Phase 3: crash fsck mid-repair, then prove the next pass still
     converges — repairs are ordered so a killed pass leaves every
     unapplied finding intact for the next run. *)
  let k = Rng.int rng 3 in
  Fault.arm_point ~site:Fault.Fsck ~index:k;
  (match Fsck.run ~repair:true spool with
   | _ -> say "fsck completed before repair %d" k
   | exception Fault.Injected _ -> say "fsck killed before repair %d" k);
  Fault.disarm ();
  let audit = Fsck.run ~repair:true spool in
  say "fsck repair: %s" (Fsck.summary audit);
  let recheck = Fsck.run spool in
  check
    (Printf.sprintf "fsck converges in one pass, second audit clean (got: %s)"
       (Fsck.summary recheck))
    (Fsck.clean recheck);

  (* Phase 4: two watch-mode daemons drain the healed spool.  Their
     lifetime observation ledgers are what reclaim the skewed remote
     daemon's claim, one ttl window after its seq stopped moving. *)
  let stop = Atomic.make false in
  let watch_config =
    { config with Daemon.once = false; poll_interval = 0.02 }
  in
  let spawn () =
    Domain.spawn (fun () ->
        Daemon.run ~should_stop:(fun () -> Atomic.get stop) watch_config spool)
  in
  let d1 = spawn () in
  let d2 = spawn () in
  let outcome name = (name ^ ".json", Spool.result_path spool (name ^ ".json"),
                      Spool.failed_path spool (name ^ ".json")) in
  let all_done () =
    List.for_all
      (fun (name, _, _) ->
        let _, res, fl = outcome name in
        Sys.file_exists res || Sys.file_exists fl)
      jobs
    && Spool.in_work spool = []
    && List.filter (fun n -> n <> "chaos-zero.json") (Spool.pending spool) = []
  in
  let deadline = Clock.wall () +. 120.0 in
  while not (all_done ()) && Clock.wall () < deadline do
    Unix.sleepf 0.05
  done;
  Atomic.set stop true;
  ignore (Domain.join d1);
  ignore (Domain.join d2);
  check "drain converged before the deadline" (all_done ());

  (* The verdicts. *)
  List.iter
    (fun (name, _, _) ->
      let _, res, fl = outcome name in
      let filed = Sys.file_exists res and failed = Sys.file_exists fl in
      check
        (Printf.sprintf "%s in exactly one outcome dir (result %b, failed %b)"
           name filed failed)
        (filed && not failed);
      let crc = solution_crc spool name in
      let want = List.assoc name reference in
      check
        (Printf.sprintf "%s solution CRC %s = reference %s" name crc want)
        (crc = want))
    jobs;
  (match skewed with
   | None -> ()
   | Some name ->
     check
       (Printf.sprintf "skewed claim %s healed into a result" name)
       (Spool.result_ok spool name));
  check "zero-byte job quarantined, not filed"
    (Sys.file_exists (Spool.failed_path spool "chaos-zero.json")
    && not (Sys.file_exists (Spool.result_path spool "chaos-zero.json")));
  check "work/ empty" (Spool.in_work spool = []);
  let final = Fsck.run spool in
  check
    (Printf.sprintf "final audit clean (got: %s)" (Fsck.summary final))
    (Fsck.clean final);
  say "seed %d: OK — %d jobs, 1 quarantine, every invariant held" seed
    (List.length jobs)
