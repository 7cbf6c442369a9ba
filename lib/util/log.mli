(** Leveled, structured logging for the CLIs and the job daemon.

    Two sinks: human-readable lines on stderr (always), and an optional
    JSONL file where each event is one {!Json_lite} object appended
    line-atomically ({!Atomic_io.append_line}) — greppable while the
    process runs, safe under concurrent writers, and a broken sink
    never raises into the logged code path.

    This is operational logging: levels, timestamps, key=value fields.
    Experiment results stay in their own artifacts (result JSON, CSV,
    checkpoints). *)

type level = Debug | Info | Warn | Error

type field = string * Json_lite.t
(** One structured field; rendered as [key=value] on stderr and as a
    JSON member in the sink. *)

val set_level : level -> unit
(** Events below this level are dropped (default [Info]). *)

val set_sink : string option -> unit
(** Enable ([Some path]) or disable ([None], the default) the JSONL
    sink. *)

val set_tag : string -> unit
(** The bracketed prefix of stderr lines (default ["dse"]); the daemon
    sets its own. *)

val env_var : string
(** ["REPRO_LOG"] — level name honoured by {!configure_from_env}. *)

val configure_from_env : unit -> unit
(** Set the level from [$REPRO_LOG] when present and valid (["debug"],
    ["info"], ["warn"]/["warning"] or ["error"]). *)

val enabled : level -> bool
(** Whether events at this level currently pass the threshold. *)

val info : ?fields:field list -> ('a, unit, string, unit) format4 -> 'a
val warn : ?fields:field list -> ('a, unit, string, unit) format4 -> 'a
val error : ?fields:field list -> ('a, unit, string, unit) format4 -> 'a
