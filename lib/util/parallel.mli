(** Dependency-free parallel execution over OCaml 5 domains.

    A fixed-size team of domains drains an indexed work list through a
    shared atomic counter.  Results are collected into a slot per item,
    so the output order is the item order no matter which domain ran
    which item — parallel output is bit-identical to sequential output
    provided each item derives any randomness from its own index (never
    from submission or completion order).

    The work items themselves must not share mutable state; read-only
    sharing (applications, platforms, configurations) is fine. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the machine's useful
    parallelism. *)

type 'a outcome =
  | Done of 'a                (** completed within its budget *)
  | Failed of { exn : exn; error : string; trace : string }
      (** the body raised; [exn] is the exception, for a caller that
          must re-raise it or match on it (an injected fault is a
          crash, a [Failure] carries its own message), [error] its
          printed form *)
  | Timed_out of 'a option
      (** the per-item deadline expired; [Some v] when the cooperative
          body returned a best-so-far value, [None] when it raised *)
  | Skipped                   (** a global stop was pending before the
                                  item started *)

val outcome_name : 'a outcome -> string
(** ["done"] / ["failed"] / ["timed-out"] / ["skipped"], the strings
    used in result files. *)

val outcome_value : 'a outcome -> 'a option
(** The salvaged value: [Done v] and [Timed_out (Some v)] carry one. *)

val map_outcomes :
  ?jobs:int -> ?timeout:float -> ?should_stop:(unit -> bool) -> int ->
  (int -> stop:(unit -> bool) -> 'a) -> 'a outcome array
(** [map_outcomes ~jobs n body] runs [body 0 .. body (n-1)] on up to
    [jobs] domains (default {!default_jobs}; clamped to [n]; [jobs = 1]
    runs everything in the calling domain) and returns one {!outcome}
    per item, in index order.  The pool {e never} aborts: each slot
    resolves to its own outcome and every other item still runs to its
    own conclusion; every spawned domain is joined before the call
    returns.  The [Fault.Worker] probe fires just before each body,
    with the item index as its index.

    The body receives [~stop], a cooperative probe combining the
    caller's [should_stop] with the per-item [timeout] (seconds,
    measured from the item's start).  Long-running bodies
    should poll it at natural boundaries and return their best-so-far
    early — such a return is classified [Timed_out (Some v)] when the
    deadline had expired, so partial work is kept, never lost.

    Each item runs once: a body that raises is [Failed] with its
    printed exception and backtrace (retrying is the caller's policy,
    as the job daemon's).  Items not yet started when [should_stop]
    turns true resolve to [Skipped]; an item that ran under the stop
    resolves to [Done] with whatever the body returned, so a body that
    can be cut short must say so in its value.  Raises
    [Invalid_argument] when [n < 0], [jobs < 1], or [timeout] is
    negative. *)
