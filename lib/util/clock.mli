(** Wall-clock time and durations.

    [Sys.time] measures process CPU time, which sums over every running
    domain — useless for judging parallel speedups.  All elapsed-time
    measurements (engine runs, budgets, benchmark harness) go through
    this module instead: {!mono} for durations, {!wall} for timestamps
    and for lease expiry, which other processes read. *)

val wall : unit -> float
(** Seconds since the epoch, sub-millisecond resolution. *)

val mono : unit -> float
(** Seconds on a monotonic clock from an arbitrary origin: only the
    difference of two readings means anything.  It never jumps when
    the system time is set, so durations measured with it are never
    negative. *)

val deadline : seconds:float -> unit -> bool
(** [deadline ~seconds] starts a budget of [seconds] now, on the
    monotonic clock, and returns a probe that answers whether the
    budget is exhausted.  A non-positive budget is already
    exhausted. *)
