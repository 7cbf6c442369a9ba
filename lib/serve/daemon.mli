(** The batch job-queue daemon behind [dse-serve] — fleet-safe: any
    number of daemons may drain one {!Spool} concurrently.

    Each daemon owns a {!Lease} (a per-daemon file under
    [<root>/daemons/], refreshed with a monotonic sequence number) that
    doubles as its heartbeat; every claim is stamped with the owning
    lease, so a peer's {!Spool.reclaim} can re-queue a dead daemon's
    orphaned claims — checkpoints kept, so the rerun resumes — without
    ever stealing a live peer's work.  Reclaim runs at startup, then
    again about once per lease period and on every idle tick, so a
    daemon that dies mid-job is healed by any surviving peer within
    roughly one lease ttl.

    Draining: claim the oldest queued job (atomic rename), run its
    exploration under the job's (or the daemon's) wall-clock timeout
    with bounded retries and {!Repro_util.Backoff} pacing, then file
    the outcome — a result JSON in [results/] (including degraded
    ["timed-out"] results carrying best-so-far) or a quarantine in
    [failed/] for poison jobs (the reason file records the daemon id,
    lease sequence and attempt count).  Repeated failures open a
    circuit breaker that pauses draining for a cooldown instead of
    burning the backlog.  Idle polling is jittered per daemon
    (deterministically, from the lease id) so a fleet never
    thundering-herds the spool directory.

    Supervision contract:
    - a per-job timeout reaches the engine as its cooperative stop
      probe, so an oversized job yields a ["timed-out"] result with
      its best-so-far solution — never a hang, never a lost job;
    - the same stop probe keeps the lease fresh mid-job, so a job
      longer than the lease ttl never lapses into a reclaim window;
    - every job, one chain or several, runs through
      {!Repro_dse.Explorer.explore_restarts}: a single chain
      checkpoints into [work/<base>.ckpt], restart i of several into
      [work/<base>.r<i>.ckpt], and each resumes after a crash or
      shutdown;
    - a global stop (SIGINT) that cuts any chain short re-queues the
      in-flight job with its checkpoints and returns [Interrupted];
    - an armed [Fault.Job] point crashes the daemon right after a
      claim, an armed [Fault.Lease] point at the matching lease
      refresh, and any {!Repro_util.Fault.Injected} raised in a chain
      or reaching the job retry loop is re-raised as a crash — the
      windows {!Spool.reclaim} must close; [make faultcheck] drills
      them. *)

type config = {
  timeout : float option;       (** default per-job wall seconds *)
  retries : int;                (** extra attempts per job *)
  backoff : Repro_util.Backoff.policy option;
                                (** pacing between attempts *)
  breaker_threshold : int;      (** consecutive failures that open *)
  breaker_cooldown : float;     (** seconds before half-open *)
  poll_interval : float;        (** idle / breaker-open sleep (jittered) *)
  once : bool;                  (** drain and exit instead of watching *)
  max_jobs : int option;        (** stop after claiming this many *)
  jobs : int;                   (** domains for multi-restart jobs *)
  checkpoint_every : int;       (** iterations between checkpoints *)
  lease_ttl : float;            (** lease freshness window, seconds *)
  daemon_id : string option;    (** explicit lease id; default unique *)
  fsck : bool;                  (** run an {!Fsck} repair pass at
                                    startup and about once per lease
                                    period *)
  promote_after : float option; (** age a job must sit in a band
                                    before {!Spool.promote_aged}
                                    lifts it; [None] disables *)
}

val default_config : config
(** No timeout, 1 retry with default backoff, breaker 5/30 s, 1 s
    poll, watch mode, 1 domain, checkpoint every 2000 iterations,
    30 s lease ttl, auto-generated daemon id, fsck on, aging
    promotion after 600 s. *)

type stats = {
  mutable claimed : int;
  mutable completed : int;     (** results filed, timed-out included *)
  mutable timed_out : int;
  mutable quarantined : int;
  mutable requeued : int;      (** given back on shutdown *)
  mutable recovered : int;     (** orphaned claims reclaimed (startup
                                   and ongoing sweeps) *)
  mutable fenced : int;        (** results dropped at the commit point:
                                   the claim stamp no longer carried
                                   this lease's claim-time sequence
                                   number ({!Spool.finish_fenced}) *)
  mutable fenced_late : int;   (** commits that landed while the claim
                                   changed hands inside the write
                                   window ([Spool.Fenced_late]): the
                                   result stands, the new owner's
                                   claim files were left untouched *)
  mutable repaired : int;      (** fsck findings repaired on this
                                   daemon's audit ticks *)
}

type outcome = Drained | Interrupted

val outcome_name : outcome -> string

val run : ?should_stop:(unit -> bool) -> config -> Spool.t -> outcome * stats
(** Drain the spool.  Returns [Drained] when the queue is empty
    ([once]) or the [max_jobs] budget is spent, [Interrupted] when
    [should_stop] turned true.  Raises [Invalid_argument] on a
    non-positive poll interval or lease ttl, or an invalid
    [daemon_id]; an armed fault point escapes deliberately (that is
    the crash drill). *)
