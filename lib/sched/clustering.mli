(** Deterministic temporal partitioning by clustering.

    The GA baseline of Ben Chehida & Auguin derives, for each spatial
    partitioning, a *single* temporal partitioning with a deterministic
    clustering pass (this is precisely the limitation the paper's
    concurrent exploration removes).  The pass walks the hardware tasks
    in topological order and packs them into the current context until
    the device capacity would be exceeded, then opens a new context.
    {!Gene_decoder}'s forward sweep runs it once per gene vector, on
    flat arrays and without allocating. *)

open Repro_taskgraph

val members : App.t -> context:int array -> int -> int list list
(** [members app ~context count] lists the members of each of the
    [count] contexts, contexts in execution order and members in
    topological order, where [context.(v)] is the 0-based position of
    task [v]'s context, or a negative number when [v] stays in
    software. *)
