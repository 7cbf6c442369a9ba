(** Name-indexed registry of search engines.

    Engines register under their {!Engine.S.name}; the CLIs resolve
    [--engine]/[--engines] through {!find} and the conformance suite
    iterates {!all}.  Registration is idempotent — re-registering a
    name replaces the previous entry while keeping its position — so
    calling a library's [register_all] twice is harmless.

    The registry itself is engine-agnostic: the annealer registers
    from {!Explorer}, the baselines from [Repro_baseline.Engines].
    Registration is an explicit call (no link-order magic): entry
    points call [Repro_baseline.Engines.register_all] once before
    resolving names. *)

val register : Engine.t -> unit
(** Add an engine (or replace the one with the same name). *)

val find : string -> (Engine.t, string) result
(** Resolve a name; the error message lists every known name. *)

val all : unit -> Engine.t list
(** Every registered engine, in registration order. *)

val names : unit -> string list
(** Registered names, in registration order. *)
