(** Deterministic fault injection for resilience tests.

    A fault {e plan} is a set of (site, index) points at which an
    {!Injected} exception is raised.  Four sites exist: [Eval] indexes
    the process-wide count of solution evaluations, [Worker] indexes
    the items of a [Parallel.map_outcomes] pool — restart chains,
    frontier devices, sweep and compare cells, and the lanes of a
    racing portfolio; a round-robin or chain portfolio's slices run
    outside any pool, so no [Worker] index reaches them — [Job] indexes the jobs a
    [dse-serve] daemon claims — an armed [Job] point crashes the daemon
    mid-queue, the hook the service fault drills use — [Lease]
    indexes a daemon's lease refreshes, so an armed point kills a
    daemon {e while it holds its lease} (and possibly a claimed job),
    the window the fleet reclaim drills exercise — and [Fsck] indexes
    the repairs an [Fsck.run ~repair:true] pass applies, so an armed
    point crashes the auditor {e mid-repair}, the window the chaos
    drill uses to prove fsck is idempotent under its own crashes.
    An armed point fires every time its (site, index) is reached,
    until {!disarm}.

    When nothing is armed the probes cost a single atomic load, so the
    hooks stay in production code paths permanently.  Plans are armed
    programmatically ({!arm_point}, {!arm}) or from the [REPRO_FAULTS]
    environment variable — a comma-separated list of
    [site:index] entries, e.g. [REPRO_FAULTS="worker:3,eval:120"]. *)

type site = Eval | Worker | Job | Lease | Fsck

exception Injected of string
(** Raised at an armed point; the payload names the site and index. *)

val arm_point : site:site -> index:int -> unit
(** Arm a single point.  Raises [Invalid_argument] on a negative
    index. *)

val arm : string -> unit
(** Arm every point of a [site:index] comma-separated spec.  Raises
    [Invalid_argument] on a malformed spec with a one-line message
    naming the offending entry and the reason (unknown site, malformed
    or negative index, anything but two [:]-separated fields, empty
    entry from a stray comma). *)

val arm_from_env : unit -> unit
(** {!arm} from [$REPRO_FAULTS] if set and non-empty. *)

val env_var : string
(** ["REPRO_FAULTS"]. *)

val disarm : unit -> unit
(** Clear the plan and reset the evaluation counter. *)

val armed : unit -> bool
(** Whether any point is armed. *)

val check : site -> int -> unit
(** [check site index] raises {!Injected} iff the plan contains
    [(site, index)].  Used with an explicit index (worker items). *)

val tick_eval : unit -> unit
(** Counter-based probe for the [Eval] site: each call when a plan is
    armed consumes the next evaluation index. *)
