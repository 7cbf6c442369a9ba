(** Batch job description: one exploration request, read from a
    [jobs/*.json] spool file.

    A job is a flat JSON object; unknown keys, ill-typed values and
    inconsistent combinations are hard parse errors so poison jobs are
    quarantined with a message naming the problem.  Fields (all
    optional except the application):

    - ["app"] — built-in workload name, or ["app_file"] — a [.tg] path
      (exactly one of the two)
    - ["platform_file"] — a [.plat] path; defaults to the
      motion-detection platform sized by ["clbs"] (default 2000)
    - ["iters"] (default 20000), every engine's total budget;
      ["warmup"], the annealer's share of it, which must leave a
      cooling move (default the rule of
      {!Repro_anneal.Annealer.for_budget}: a tenth, at least 1, at most
      1200);
      ["seed"] (default 1), ["restarts"] (default 1)
    - ["timeout"] — per-job wall seconds, overriding the daemon's
      default
    - ["serialized"] — optimize under the serialized bus model
      (annealer only: no ["engine"] field, or ["sa"])
    - ["engine"] — resolved by {!resolve_engine}: ["sa"], like no
      field at all, runs the annealer its ["iters"], ["warmup"] and
      ["serialized"] fields describe; any other registered engine or
      portfolio spec runs ["iters"] iterations on the makespan
      objective and ignores ["warmup"].
    Either way the job runs through the engine driver's checkpointing,
    so a timed-out job records best-so-far {e and} keeps its resume
    checkpoint for a retry. *)

type source = Named of string | From_file of string

type t = {
  name : string;             (** spool file base name; the job id *)
  app : source;
  platform_file : string option;
  clbs : int;
  iters : int;
  warmup : int option;  (** [None]: the recipe's rule *)
  seed : int;
  restarts : int;
  timeout : float option;
  serialized : bool;
  engine : string option;  (** engine name, see {!resolve_engine} *)
}

val resolve_engine :
  ?report:(Repro_dse.Portfolio.lane_report array -> unit) ->
  config:Repro_dse.Explorer.config -> string ->
  (Repro_dse.Engine.t, string) result
(** The one [--engine]/["engine"] resolver of [dse-run], [dse-sweep],
    [dse-pareto] and the daemon: ["sa"] is
    {!Repro_dse.Explorer.annealer}[ config] ([Error] when [config]
    leaves it no cooling move); any other name goes through
    {!Repro_dse.Portfolio.resolve} ([report] as there).  [Error] is a
    one-line message. *)

val of_json : name:string -> string -> (t, string) result
(** Parse a job file; every failure is a one-line message. *)

val to_json : t -> string
(** One-line JSON re-encoding (used by tests and the enqueue helper). *)

val load :
  app:source -> platform_file:string option -> clbs:int ->
  (Repro_taskgraph.App.t * Repro_arch.Platform.t, string) result
(** Load and validate an application and its platform — the one input
    loader of the daemon and [dse-run].  Without [platform_file], the
    motion-detection study and [.tg] files get the motion-detection
    platform sized by [clbs]; any other built-in workload gets its
    {!Repro_workloads.Suite.platform_for} platform.  The all-software
    solution must then evaluate and pass the independent schedule
    checker.  [Error] carries a one-line message, located
    ([file:line: message]) for parser errors. *)

val load_inputs :
  t -> (Repro_taskgraph.App.t * Repro_arch.Platform.t, string) result
(** {!load} on the job's ["app"]/["app_file"], ["platform_file"] and
    ["clbs"] fields. *)

val result_fields :
  status:string -> ?restarts:Repro_dse.Explorer.restarts_report ->
  Repro_dse.Explorer.result -> (string * Repro_util.Json_lite.t) list
(** The fields every result file starts from, for [dse-serve] results
    and [dse-run --result] alike: [status], the costs ([best_cost],
    [makespan], [n_contexts]), the counters ([iterations_run],
    [accepted], [infeasible]), [wall_seconds] and [solution], the CRC
    of the encoded best solution (equal CRCs mean bit-identical
    solutions).  With [restarts], [restart_statuses] (one
    {!Repro_util.Parallel.outcome_name} per chain) and
    [degraded_restarts] follow. *)

val explorer_config : t -> Repro_dse.Explorer.config
(** {!Repro_anneal.Annealer.for_budget} on ["iters"], ["warmup"] and
    ["seed"], the recipe of every tool: a job without a ["warmup"]
    field anneals as the registered [sa] on the same budget.  Any
    other engine ignores ["warmup"] and gets a warmup of 0, so its
    config is well formed at any budget. *)
