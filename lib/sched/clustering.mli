(** Deterministic temporal partitioning by clustering.

    The GA baseline of Ben Chehida & Auguin derives, for each spatial
    partitioning, a *single* temporal partitioning with a deterministic
    clustering pass (this is precisely the limitation the paper's
    concurrent exploration removes).  The pass walks the hardware tasks
    in topological order and packs them into the current context until
    the device capacity would be exceeded, then opens a new context.

    The pass reads and writes flat arrays so that {!Gene_decoder} can
    run it once per gene vector without allocating. *)

open Repro_taskgraph

val contexts :
  App.t -> limit:int -> area:int array -> context:int array -> int
(** [contexts app ~limit ~area ~context] packs the tasks with
    [area.(v) >= 0] — the CLB area of the implementation selected for a
    task that asks for hardware; software tasks carry a negative area —
    into devices of [limit] CLBs.  It writes into [context.(v)] the
    0-based position of task [v]'s context in execution order, or [-1]
    when [v] stays in software, which includes every task whose area
    alone exceeds [limit] (the caller must treat those as software).
    Returns the number of contexts. *)

val members : App.t -> context:int array -> int -> int list list
(** [members app ~context count] lists the members of each of the
    [count] contexts written by {!contexts}, contexts in execution
    order and members in topological order. *)
