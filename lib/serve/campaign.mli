(** Campaign manifests: one JSON naming many jobs plus a completion
    predicate, submitted idempotently and aggregated into one report.

    A manifest is a single JSON object:
    {v
    {
      "campaign": "overnight-fig3",
      "complete_when": "all-filed",        (optional, the default)
      "jobs": [
        { "name": "md-s1", "app": "motion_detection", "seed": 1, ... },
        { "name": "md-s2", "app": "motion_detection", "seed": 2, ... }
      ]
    }
    v}
    Each entry is a {!Job} object plus a unique ["name"] that becomes
    the spool file name ([jobs/<name>.json]) and an optional
    ["priority"] band 0..9 (0, the default, is [jobs/] itself and the
    most urgent; band k >= 1 enqueues into [jobs/p<k>/], claimed after
    every higher band — {!Spool.promote_aged} keeps low bands from
    starving).  Every entry is validated up front with the job parser,
    so a manifest naming a poison job is rejected as a whole with a
    one-line message naming the entry — a campaign never
    half-enqueues.

    {!submit} is idempotent: re-run any number of times, it enqueues
    only the jobs with no queued, claimed or filed counterpart, so an
    overnight campaign survives any combination of producer and daemon
    crashes — re-submitting after a crash resumes exactly where the
    spool stands.  {!report} folds the campaign's result JSONs into
    one aggregate with per-job statuses, degraded/quarantined counts,
    a completion verdict and the cross-job Pareto set over
    (device size, makespan). *)

type predicate =
  | All_filed    (** done when every job has a result {e or} is
                     quarantined — nothing is in flight *)
  | All_results  (** done only when every job has a result JSON *)

type entry = {
  name : string;   (** unique job base name within the campaign *)
  job : Job.t;     (** the validated spec *)
  text : string;   (** canonical job JSON written to [jobs/] *)
  priority : int;  (** target band, 0 (default, highest) .. 9 *)
}

type t = {
  name : string;
  predicate : predicate;
  entries : entry list;
}

val of_json : string -> (t, string) result
(** Parse and validate a manifest.  Hard errors (one line each):
    unknown top-level keys, a missing or empty ["campaign"], an
    unknown ["complete_when"], an empty or ill-typed ["jobs"] array,
    an entry without a valid ["name"] (file-name-safe, unique), or an
    entry the job parser rejects (the message names the entry). *)

val load : string -> (t, string) result
(** {!of_json} on a file, errors prefixed with the path. *)

type submission = {
  enqueued : string list;  (** entry names written to [jobs/] *)
  skipped : string list;   (** entries with an existing counterpart *)
}

val submit : t -> Spool.t -> submission
(** Idempotent enqueue: an entry is written (into its priority band)
    only when none of [jobs/] (any band), [work/], [results/],
    [failed/] holds its file.  Entries are checked in manifest order;
    names are returned in that order. *)

type job_state =
  | Queued
  | Claimed of string option
      (** owner lease id from the claim stamp, when stamped *)
  | Filed of (string * Repro_util.Json_lite.t) list
      (** the result JSON's fields *)
  | Damaged of string
      (** a result file exists but does not parse (torn or zero-byte
          write); the payload is the one-line parse error.  Counted
          separately, never as done — [dse-serve fsck] repairs or
          explains these. *)
  | Quarantined of (string * Repro_util.Json_lite.t) list
      (** the reason JSON's fields (empty when unreadable) *)
  | Missing  (** never submitted, or spool files removed *)

val report : Spool.t -> t -> Repro_util.Json_lite.t
(** The aggregate report object: campaign name, per-state counts
    (queued / claimed / completed / timed-out / degraded /
    quarantined / damaged / missing), a ["done"] verdict from the manifest's
    predicate, a ["jobs"] array with one status object per entry
    (result fields — best_cost, makespan, solution CRC, attempts —
    folded in for filed jobs; reason, daemon_id, attempts for
    quarantined ones), and ["pareto"]: the cross-job non-dominated
    set over (clbs, makespan) among filed jobs, sorted by increasing
    device size. *)
