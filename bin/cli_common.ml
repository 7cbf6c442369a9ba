(* Shared plumbing for the dse-* command-line tools: SIGINT/deadline
   wiring, result files, cell-loss warnings and exit codes. *)

module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Interrupt = Repro_util.Interrupt
module Clock = Repro_util.Clock
module Atomic_io = Repro_util.Atomic_io
module Json = Repro_util.Json_lite
module Log = Repro_util.Log

(* Exit codes, shared by all six dse-* tools: 0 success — including
   degraded completions, which exit 0 with warnings on stderr and an
   explicit status in the result JSON; 2 bad input or usage; 3
   interrupted (SIGINT or exhausted --time-budget) with best-so-far
   results emitted. *)
let exit_ok = 0
let exit_usage = 2
let exit_interrupted = 3

(* Man-page documentation of the convention, shared by every tool. *)
let exits =
  Cmdliner.Cmd.Exit.info exit_usage
    ~doc:"on malformed input files or invalid flag combinations."
  :: Cmdliner.Cmd.Exit.info exit_interrupted
       ~doc:
         "when interrupted by SIGINT or an exhausted time budget; \
          best-so-far results are still emitted."
  :: Cmdliner.Cmd.Exit.defaults

exception Usage_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Usage_error msg)) fmt

(* [should_stop ~time_budget] wires SIGINT and the wall-clock budget
   into one boundary probe; pass it to the explorer. *)
let should_stop ~time_budget =
  Interrupt.install ();
  match time_budget with
  | None -> Interrupt.pending
  | Some seconds ->
    let expired = Clock.deadline ~seconds in
    fun () -> Interrupt.pending () || expired ()

(* The evaluation counters of a run, per move kind — the perf
   trajectory of the incremental evaluator, machine-readable across
   PRs.  Kinds that never evaluated are omitted. *)
let eval_stats_json (stats : Solution.eval_stats) =
  let open Json in
  let by_kind =
    List.filter_map
      (fun kind ->
        let ks = Solution.kind_stats stats kind in
        if ks.Solution.k_full_evals = 0 && ks.Solution.k_incr_evals = 0 then
          None
        else
          Some
            ( Solution.move_kind_label kind,
              Obj
                [
                  ("full_evals", num_int ks.Solution.k_full_evals);
                  ("incr_evals", num_int ks.Solution.k_incr_evals);
                  ("incr_nodes", num_int ks.Solution.k_incr_nodes);
                  ("edges_edited", num_int ks.Solution.k_edges_edited);
                  ("pairs_emitted", num_int ks.Solution.k_pairs_emitted);
                  ("comm_edges_patched", num_int ks.Solution.k_comm_patched);
                  ("pair_regens", num_int ks.Solution.k_pair_regens);
                ] ))
      Solution.move_kinds
  in
  Obj
    [
      ("full_evals", num_int stats.Solution.full_evals);
      ("full_nodes", num_int stats.Solution.full_nodes);
      ("incr_evals", num_int stats.Solution.incr_evals);
      ("incr_nodes", num_int stats.Solution.incr_nodes);
      ("edges_edited", num_int stats.Solution.edges_edited);
      ("pairs_emitted", num_int stats.Solution.pairs_emitted);
      ("comm_edges_patched", num_int stats.Solution.comm_patched);
      ("pair_regens", num_int stats.Solution.pair_regens);
      ("by_kind", Obj by_kind);
    ]

(* Machine-readable result file: always written atomically, always
   carries an explicit status ("complete" | "degraded" | "interrupted")
   so a consumer can tell a finished campaign from a partial one — the
   daemon's result fields ([Job.result_fields]), plus the evaluation
   counters. *)
let write_result ?restarts path ~status ~(result : Explorer.result) =
  let fields =
    Repro_serve.Job.result_fields ~status ?restarts result
    (* Keep this the last field: the faultcheck drill strips it (the
       counters are process-local, so a clean run and a kill/resume
       run legitimately differ here). *)
    @ [
        ( "eval_stats",
          eval_stats_json (Solution.eval_stats result.Explorer.best) );
      ]
  in
  Atomic_io.write_string path (Json.obj fields ^ "\n")

(* Print cell-loss warnings the same way in every campaign tool. *)
let report_warnings ~what warnings =
  List.iter
    (fun (index, msg) -> Log.warn "%s %d: %s" what index msg)
    warnings

(* The --engine front door of dse-run, dse-sweep and dse-pareto, the
   daemon's resolver; [report] receives a portfolio's per-lane
   verdicts, and a resolution error is a one-line usage error. *)
let search_engine ?report ~config name =
  match Repro_serve.Job.resolve_engine ?report ~config name with
  | Ok engine -> engine
  | Error msg -> fail "%s" msg

(* Wrap a command body: malformed inputs and usage mistakes become a
   one-line error on stderr and exit code 2 — no raw exception ever
   escapes to the user.  Also honours $REPRO_FAULTS so the fault plan
   can be armed on any tool, and registers the search engines so every
   tool resolves the same names. *)
let guard body =
  try
    Repro_util.Fault.arm_from_env ();
    Repro_baseline.Engines.register_all ();
    body ()
  with
  | Usage_error msg | Invalid_argument msg | Failure msg | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit_usage
