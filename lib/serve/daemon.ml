module Backoff = Repro_util.Backoff
module Clock = Repro_util.Clock
module Fault = Repro_util.Fault
module Json = Repro_util.Json_lite
module Log = Repro_util.Log
module Parallel = Repro_util.Parallel
module Rng = Repro_util.Rng
module Explorer = Repro_dse.Explorer
module Engine = Repro_dse.Engine

type config = {
  timeout : float option;
  retries : int;
  backoff : Backoff.policy option;
  breaker_threshold : int;
  breaker_cooldown : float;
  poll_interval : float;
  once : bool;
  max_jobs : int option;
  jobs : int;
  checkpoint_every : int;
  lease_ttl : float;
  daemon_id : string option;
  fsck : bool;
  promote_after : float option;
}

let default_config =
  {
    timeout = None;
    retries = 1;
    backoff = Some Backoff.default;
    breaker_threshold = 5;
    breaker_cooldown = 30.0;
    poll_interval = 1.0;
    once = false;
    max_jobs = None;
    jobs = 1;
    checkpoint_every = 2_000;
    lease_ttl = 30.0;
    daemon_id = None;
    fsck = true;
    promote_after = Some 600.0;
  }

type stats = {
  mutable claimed : int;
  mutable completed : int;
  mutable timed_out : int;
  mutable quarantined : int;
  mutable requeued : int;
  mutable recovered : int;
  mutable fenced : int;
      (* results aborted at the commit point because the claim was
         reclaimed from under this daemon (stall past the lease ttl) *)
  mutable fenced_late : int;
      (* commits that landed inside the write window while the claim
         changed hands: the result stands (byte-identical by
         determinism), no claim-side file was touched *)
  mutable repaired : int;
      (* fsck findings this daemon repaired on its audit ticks *)
}

type outcome = Drained | Interrupted

let outcome_name = function
  | Drained -> "drained"
  | Interrupted -> "interrupted"

(* ---- per-job result ---------------------------------------------- *)

let result_json job ~status ~attempts ?restarts result =
  let open Json in
  obj
    ((("job", Str job.Job.name) :: Job.result_fields ~status ?restarts result)
    @ [
        ("seed", num_int job.Job.seed);
        ("restarts", num_int job.Job.restarts);
        ("attempts", num_int attempts);
      ]
    @
    match job.Job.engine with Some e -> [ ("engine", Str e) ] | None -> [])

(* What one attempt of a job produced.  [Shutdown] is not a job
   verdict: the global stop fired mid-run, the job goes back to the
   queue with its checkpoints and the daemon winds down. *)
type attempt_result =
  | Finished of { status : string; json : string }
  | Shutdown

(* A chain was cut short when its engine returned at a stop probe, or
   when the pool never started it because a stop was already
   pending. *)
let chain_cut_short = function
  | Parallel.Skipped -> true
  | outcome -> (
    match Parallel.outcome_value outcome with
    | Some r -> r.Explorer.status = Engine.Interrupted
    | None -> false)

let run_attempt config spool job ~attempts ~stop ~deadline_expired =
  let name = job.Job.name ^ ".json" in
  match Job.load_inputs job with
  | Error msg -> failwith msg
  | Ok (app, platform) ->
    (* An unknown engine name is poison, not a transient failure; the
       registry error already lists every known name.  "sa" is the
       annealer the job's own fields configure, as in dse-run. *)
    let explorer_config = Job.explorer_config job in
    let engine =
      Job.resolve_engine ~config:explorer_config
        (Option.value job.Job.engine ~default:"sa")
      |> Result.fold ~ok:Fun.id ~error:failwith
    in
    (* Every job runs as supervised chains; the job deadline is every
       chain's stop probe, so a chain that overruns flushes its
       checkpoint and yields best-so-far, and a chain that never
       started is skipped.  A single chain checkpoints to
       work/<base>.ckpt, restart i of several to work/<base>.r<i>.ckpt,
       and the engine driver resumes each one opportunistically (a
       stale or foreign checkpoint is warned about and ignored). *)
    let restart_checkpoint index =
      {
        Engine.path =
          (if job.Job.restarts = 1 then Spool.checkpoint_path spool name
           else Spool.restart_checkpoint_path spool name index);
        every = config.checkpoint_every;
        resume = Engine.Resume_if_exists;
      }
    in
    let report =
      Explorer.explore_restarts ~jobs:config.jobs ~should_stop:stop
        ~restart_checkpoint ~restarts:job.Job.restarts engine explorer_config
        app platform
    in
    let outcomes = Array.to_list report.Explorer.restart_outcomes in
    (* An injected fault is a simulated crash wherever it fired, so it
       outranks every other verdict. *)
    List.iter
      (function
        | Parallel.Failed { exn = Fault.Injected _ as crash; _ } -> raise crash
        | _ -> ())
      outcomes;
    let cut_short = List.exists chain_cut_short outcomes in
    if cut_short && not (deadline_expired ()) then Shutdown
    else
      match report.Explorer.best_result with
      | None -> (
        match
          List.find_map
            (function Parallel.Failed { exn; _ } -> Some exn | _ -> None)
            outcomes
        with
        | Some exn -> raise exn
        | None -> failwith "all restarts lost")
      | Some best ->
        let status =
          if cut_short then "timed-out"
          else if report.Explorer.degraded > 0 then "degraded"
          else "complete"
        in
        let restarts = if job.Job.restarts > 1 then Some report else None in
        Finished
          { status; json = result_json job ~status ~attempts ?restarts best }

(* ---- one claimed job --------------------------------------------- *)

type job_verdict =
  | Ok_result of { status : string; json : string }
  | Poison of { reason : string; attempts : int }
  | Stop_requested

let process config spool ~should_stop ~lease ~lease_fields name text =
  let job_name = Filename.remove_extension name in
  match Job.of_json ~name:job_name text with
  | Error msg -> Poison { reason = msg; attempts = 0 }
  | Ok job ->
    let deadline_expired =
      match (job.Job.timeout, config.timeout) with
      | Some seconds, _ | None, Some seconds -> Clock.deadline ~seconds
      | None, None -> fun () -> false
    in
    (* The stop probe doubles as the mid-job lease keeper: it fires at
       every iteration boundary, so a job longer than the lease ttl
       never lets the lease lapse into a peer's reclaim window. *)
    let stop () =
      Lease.maybe_refresh ~fields:lease_fields lease;
      should_stop () || deadline_expired ()
    in
    let jitter = Rng.create (Hashtbl.hash job_name) in
    let rec attempt k =
      match
        run_attempt config spool job ~attempts:(k + 1) ~stop ~deadline_expired
      with
      | Finished { status; json } -> Ok_result { status; json }
      | Shutdown -> Stop_requested
      | exception (Fault.Injected _ as crash) ->
        (* An injected fault is a simulated crash: it must kill the
           daemon — leaving lease file, claim stamp and checkpoints
           behind for the reclaim drills — never be absorbed by the
           retry loop as an ordinary job failure. *)
        raise crash
      | exception exn ->
        let error = Printexc.to_string exn in
        if k < config.retries && not (stop ()) then begin
          (match config.backoff with
           | None -> ()
           | Some policy ->
             let pause = Backoff.delay policy jitter ~attempt:k in
             Log.warn
               ~fields:
                 [
                   ("job", Json.Str job_name);
                   ("attempt", Json.num_int (k + 1));
                   ("backoff_s", Json.Num pause);
                 ]
               "attempt failed: %s" error;
             Unix.sleepf pause);
          attempt (k + 1)
        end
        else
          Poison
            {
              reason =
                Printf.sprintf "%s (after %d attempt(s))" error (k + 1);
              attempts = k + 1;
            }
    in
    attempt 0

(* ---- the drain loop ---------------------------------------------- *)

let status_fields spool stats breaker ~state =
  let open Json in
  [
    ("state", Str state);
    ("queued", num_int (Spool.queue_depth spool));
    ("claimed", num_int stats.claimed);
    ("completed", num_int stats.completed);
    ("timed_out", num_int stats.timed_out);
    ("quarantined", num_int stats.quarantined);
    ("requeued", num_int stats.requeued);
    ("recovered", num_int stats.recovered);
    ("fenced", num_int stats.fenced);
    ("fenced_late", num_int stats.fenced_late);
    ("repaired", num_int stats.repaired);
    ( "breaker",
      Str (Backoff.Breaker.state_name (Backoff.Breaker.state breaker)) );
    ( "consecutive_failures",
      num_int (Backoff.Breaker.consecutive_failures breaker) );
    ("breaker_trips", num_int (Backoff.Breaker.trips breaker));
  ]

let run ?(should_stop = fun () -> false) config spool =
  if config.poll_interval <= 0.0 then
    invalid_arg "Daemon.run: poll interval wants to be positive";
  if config.lease_ttl <= 0.0 then
    invalid_arg "Daemon.run: lease ttl wants to be positive";
  let lease =
    Lease.acquire ?id:config.daemon_id ~dir:spool.Spool.daemons_dir
      ~ttl:config.lease_ttl ()
  in
  let stats =
    {
      claimed = 0;
      completed = 0;
      timed_out = 0;
      quarantined = 0;
      requeued = 0;
      recovered = 0;
      fenced = 0;
      fenced_late = 0;
      repaired = 0;
    }
  in
  let breaker =
    Backoff.Breaker.create ~threshold:config.breaker_threshold
      ~cooldown:config.breaker_cooldown ()
  in
  let heartbeat ~state =
    Lease.refresh ~fields:(status_fields spool stats breaker ~state) lease
  in
  (* Reclaim is continuously runnable: at startup, then again whenever
     a lease period has elapsed (even while busy) and on every idle
     tick — so a daemon that dies mid-job is healed by any surviving
     peer within about one lease period, not only at the next daemon
     startup.  Live peers' stamped claims are never touched.  The
     ledger rides along: observed peer seqs accumulate across ticks,
     so a clock-skewed remote daemon that stops refreshing is declared
     dead one ttl window after this daemon first saw its last seq. *)
  let ledger = Lease.Ledger.create () in
  let last_reclaim = ref neg_infinity in
  (* fsck (integrity) composes with reclaim (liveness) on the same
     cadence, but keeps its own stamp: reclaim also runs on every idle
     tick, and a full audit per poll tick would tax large spools. *)
  let last_fsck = ref neg_infinity in
  let fsck_now () =
    if config.fsck && Clock.wall () -. !last_fsck >= config.lease_ttl then begin
      last_fsck := Clock.wall ();
      let audit = Fsck.run ~repair:true spool in
      let applied =
        List.length (List.filter (fun f -> f.Fsck.applied) audit.Fsck.findings)
      in
      stats.repaired <- stats.repaired + applied;
      if audit.Fsck.findings <> [] then
        Log.warn
          ~fields:[ ("spool", Json.Str spool.Spool.root) ]
          "%s" (Fsck.summary audit)
    end
  in
  let reclaim_now () =
    last_reclaim := Clock.wall ();
    fsck_now ();
    (match config.promote_after with
     | None -> ()
     | Some after ->
       List.iter
         (fun name ->
           Log.info ~fields:[ ("job", Json.Str name) ]
             "aged job promoted one priority band")
         (Spool.promote_aged ~now:(Clock.wall ()) ~after spool));
    let requeued =
      Spool.reclaim ~self:(Lease.id lease) ~ledger ~now:(Clock.wall ())
        ~grace:config.lease_ttl spool
    in
    stats.recovered <- stats.recovered + List.length requeued;
    List.iter
      (fun name ->
        Log.info ~fields:[ ("job", Json.Str name) ]
          "reclaimed orphaned claim back to the queue")
      requeued;
    requeued
  in
  let reclaim_due () = Clock.wall () -. !last_reclaim >= config.lease_ttl in
  ignore (reclaim_now () : string list);
  heartbeat ~state:"starting";
  (* Deterministic per-daemon poll jitter (the Backoff per-index RNG
     stream idiom): a fleet sharing one spool must not thundering-herd
     the directory on every tick. *)
  let poll_rng = Rng.create (Hashtbl.hash (Lease.id lease)) in
  let poll_policy =
    {
      Backoff.base = config.poll_interval;
      factor = 1.0;
      max_delay = config.poll_interval;
      jitter = 0.25;
    }
  in
  let poll_pause () = Backoff.delay poll_policy poll_rng ~attempt:0 in
  let budget_left () =
    match config.max_jobs with None -> true | Some m -> stats.claimed < m
  in
  let rec drain () =
    if should_stop () then Interrupted
    else if not (budget_left ()) then Drained
    else begin
      if reclaim_due () then ignore (reclaim_now () : string list);
      match Spool.pending spool with
      | [] ->
        (* An empty queue may still hide orphans in work/: reclaim
           before concluding — in --once mode the daemon drains what it
           heals instead of abandoning a dead peer's jobs. *)
        if reclaim_now () <> [] then drain ()
        else if config.once then Drained
        else begin
          heartbeat ~state:"idle";
          Unix.sleepf (poll_pause ());
          drain ()
        end
      | name :: _ ->
        if not (Backoff.Breaker.allow breaker) then begin
          (* Open breaker: stop burning the backlog against a failing
             dependency; wake up again after a poll tick. *)
          heartbeat ~state:"breaker-open";
          Unix.sleepf (poll_pause ());
          drain ()
        end
        else if not (Spool.claim ~owner:lease spool name) then drain ()
        else begin
          (* The fencing token: the sequence number stamped into the
             claim.  Captured now — every later refresh bumps the
             lease seq, so only this snapshot can validate the stamp
             at result-write time. *)
          let claim_seq = Lease.seq lease in
          (* The crash-drill site: an armed job:<k> point kills the
             daemon here, with job k claimed (and lease-stamped) but
             unprocessed — exactly the window reclaim must handle. *)
          Fault.check Fault.Job stats.claimed;
          stats.claimed <- stats.claimed + 1;
          heartbeat ~state:"running";
          let verdict =
            match Spool.read_claimed spool name with
            | Error msg -> Poison { reason = msg; attempts = 0 }
            | Ok text ->
              process config spool ~should_stop ~lease
                ~lease_fields:(fun () ->
                  status_fields spool stats breaker ~state:"running")
                name text
          in
          (match verdict with
           | Ok_result { status; json } ->
             (* A timed-out job keeps its checkpoints: re-enqueueing the
                same name resumes the search instead of restarting.
                The write is fenced: if the claim stamp no longer names
                this lease at this claim's sequence number, the job was
                reclaimed from under us mid-run and someone else owns
                it — drop our result instead of clobbering theirs. *)
             (match
                Spool.finish_fenced ~keep_checkpoints:(status = "timed-out")
                  spool name ~owner:lease ~claim_seq ~result_json:json
              with
              | Spool.Committed ->
                Backoff.Breaker.success breaker;
                stats.completed <- stats.completed + 1;
                if status = "timed-out" then
                  stats.timed_out <- stats.timed_out + 1;
                Log.info
                  ~fields:
                    [
                      ("job", Json.Str (Filename.remove_extension name));
                      ("status", Json.Str status);
                    ]
                  "job finished"
              | Spool.Fenced ->
                stats.fenced <- stats.fenced + 1;
                Log.warn
                  ~fields:
                    [ ("job", Json.Str (Filename.remove_extension name)) ]
                  "fencing check failed at result-write time: the claim was \
                   reclaimed mid-run (lease seq moved on); result dropped, \
                   the current owner's run stands"
              | Spool.Fenced_late ->
                stats.fenced_late <- stats.fenced_late + 1;
                Log.warn
                  ~fields:
                    [ ("job", Json.Str (Filename.remove_extension name)) ]
                  "claim changed hands inside the commit window: the filed \
                   result stands (byte-identical by determinism) but the new \
                   owner's claim files were left untouched")
           | Poison { reason; attempts } ->
             Spool.quarantine ~owner:lease ~attempts spool name ~reason;
             Backoff.Breaker.failure breaker;
             stats.quarantined <- stats.quarantined + 1;
             Log.error
               ~fields:[ ("job", Json.Str (Filename.remove_extension name)) ]
               "job quarantined: %s" reason
           | Stop_requested ->
             Spool.unclaim spool name;
             stats.requeued <- stats.requeued + 1;
             Log.info
               ~fields:[ ("job", Json.Str (Filename.remove_extension name)) ]
               "shutdown requested: job re-queued with its checkpoint");
          heartbeat ~state:"running";
          drain ()
        end
    end
  in
  let outcome = drain () in
  (* A clean exit releases the lease in place: the file stays as the
     daemon's last heartbeat (status shows it as exited) but no longer
     protects anything.  A crash skips this — that is the point. *)
  Lease.release
    ~fields:
      (status_fields spool stats breaker
         ~state:
           (match outcome with Drained -> "drained" | Interrupted -> "stopped"))
    lease;
  (outcome, stats)
