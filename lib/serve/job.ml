module Json = Repro_util.Json_lite
module Explorer = Repro_dse.Explorer
module Annealer = Repro_anneal.Annealer

type source = Named of string | From_file of string

type t = {
  name : string;
  app : source;
  platform_file : string option;
  clbs : int;
  iters : int;
  warmup : int option;
  seed : int;
  restarts : int;
  timeout : float option;
  serialized : bool;
  engine : string option;
}

let known_fields =
  [
    "app"; "app_file"; "platform_file"; "clbs"; "iters"; "warmup"; "seed";
    "restarts"; "timeout"; "serialized"; "engine";
  ]

(* "sa" is the annealer the job's (or the tool's) own fields configure;
   every other name is a registry engine or a portfolio spec. *)
let resolve_engine ?report ~config name =
  if name <> "sa" then Repro_dse.Portfolio.resolve ?report name
  else
    let warmup = config.Explorer.anneal.Annealer.warmup_iterations in
    match Annealer.for_budget ~warmup (Explorer.budget config) with
    | _ -> Ok (Explorer.annealer config)
    | exception Invalid_argument msg -> Error msg

(* A job file is one flat JSON object.  Unknown keys and ill-typed
   values are hard errors: a poison job must be quarantined with a
   message naming the problem, not half-run with silently dropped
   fields. *)
let of_json ~name text =
  let ( let* ) = Result.bind in
  let* fields = Json.parse_obj text in
  let* () =
    match
      List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
    with
    | Some (k, _) ->
      Error
        (Printf.sprintf "unknown job field %S (want %s)" k
           (String.concat "|" known_fields))
    | None -> Ok ()
  in
  let int_option key =
    match Json.find fields key with
    | None -> Ok None
    | Some v -> (
      match Json.get_int v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "job field %S wants an integer" key))
  in
  let int_field key default =
    Result.map (Option.value ~default) (int_option key)
  in
  let* app =
    match (Json.str_field fields "app", Json.str_field fields "app_file") with
    | Some _, Some _ -> Error "job declares both \"app\" and \"app_file\""
    | Some name, None -> Ok (Named name)
    | None, Some path -> Ok (From_file path)
    | None, None -> (
      match Json.find fields "app" with
      | Some _ -> Error "job field \"app\" wants a string"
      | None -> Error "job declares neither \"app\" nor \"app_file\"")
  in
  let* platform_file =
    match Json.find fields "platform_file" with
    | None -> Ok None
    | Some v -> (
      match Json.get_str v with
      | Some s -> Ok (Some s)
      | None -> Error "job field \"platform_file\" wants a string")
  in
  let* clbs = int_field "clbs" 2000 in
  let* iters = int_field "iters" 20_000 in
  let* warmup = int_option "warmup" in
  let* seed = int_field "seed" 1 in
  let* restarts = int_field "restarts" 1 in
  let* timeout =
    match Json.find fields "timeout" with
    | None -> Ok None
    | Some v -> (
      match Json.get_num v with
      | Some s when s > 0.0 -> Ok (Some s)
      | Some _ -> Error "job field \"timeout\" wants positive seconds"
      | None -> Error "job field \"timeout\" wants a number")
  in
  let* serialized =
    match Json.find fields "serialized" with
    | None -> Ok false
    | Some v -> (
      match Json.get_bool v with
      | Some b -> Ok b
      | None -> Error "job field \"serialized\" wants a boolean")
  in
  let* engine =
    match Json.find fields "engine" with
    | None -> Ok None
    | Some v -> (
      match Json.get_str v with
      | Some "" -> Error "job field \"engine\" wants a non-empty name"
      | Some s -> Ok (Some s)
      | None -> Error "job field \"engine\" wants a string")
  in
  let sa = match engine with None | Some "sa" -> true | Some _ -> false in
  let* () =
    if iters < 1 || Option.value warmup ~default:0 < 0 then
      Error "job wants iters >= 1, warmup >= 0"
    else if restarts < 1 then Error "job wants restarts >= 1"
    else if clbs < 1 then Error "job wants clbs >= 1"
    else if serialized && not sa then
      Error "job field \"serialized\" only applies to the annealer \
             (\"engine\": \"sa\" or no \"engine\" field)"
    else if not sa then Ok ()
    else
      (* The recipe refuses a warmup that leaves no cooling move. *)
      match Annealer.for_budget ?warmup iters with
      | _ -> Ok ()
      | exception Invalid_argument msg -> Error msg
  in
  Ok
    {
      name; app; platform_file; clbs; iters; warmup; seed; restarts; timeout;
      serialized; engine;
    }

let to_json job =
  let open Json in
  let fields =
    (match job.app with
     | Named n -> [ ("app", Str n) ]
     | From_file p -> [ ("app_file", Str p) ])
    @ (match job.platform_file with
       | Some p -> [ ("platform_file", Str p) ]
       | None -> [])
    @ [
        ("clbs", num_int job.clbs);
        ("iters", num_int job.iters);
      ]
    @ (match job.warmup with Some w -> [ ("warmup", num_int w) ] | None -> [])
    @ [ ("seed", num_int job.seed); ("restarts", num_int job.restarts) ]
    @ (match job.timeout with Some t -> [ ("timeout", Num t) ] | None -> [])
    @ (match job.serialized with true -> [ ("serialized", Bool true) ] | false -> [])
    @ (match job.engine with Some e -> [ ("engine", Str e) ] | None -> [])
  in
  obj fields

(* Inputs load through one path for the daemon and [dse-run]: the
   same parsers, the same one-line [file:line: message] errors and the
   same model check, returned as [Error] so the daemon can quarantine
   a job whose inputs do not load and the CLI can exit 2 on it. *)
let locate path msg =
  match Scanf.sscanf_opt msg "line %d: " (fun n -> n) with
  | Some n ->
    let skip = String.length (Printf.sprintf "line %d: " n) in
    Printf.sprintf "%s:%d: %s" path n
      (String.sub msg skip (String.length msg - skip))
  | None -> Printf.sprintf "%s: %s" path msg

let load ~app:source ~platform_file ~clbs =
  let ( let* ) = Result.bind in
  let* app =
    match source with
    | Named name -> (
      match List.assoc_opt name Repro_workloads.Suite.named with
      | Some make -> Ok (make ())
      | None ->
        Error
          (Printf.sprintf "unknown application %S (try: %s)" name
             (String.concat ", "
                (List.map fst Repro_workloads.Suite.named))))
    | From_file path -> (
      match Repro_taskgraph.App_io.load path with
      | Ok app -> Ok app
      | Error msg -> Error (locate path msg))
  in
  let* platform =
    match platform_file with
    | Some path -> (
      match Repro_arch.Platform_io.load path with
      | Ok p -> Ok p
      | Error msg -> Error (locate path msg))
    | None -> (
      match source with
      | Named "motion_detection" | From_file _ ->
        Ok (Repro_workloads.Motion_detection.platform ~n_clb:clbs ())
      | Named _ -> Ok (Repro_workloads.Suite.platform_for app))
  in
  (* Check the model before spending iterations on it: the
     all-software solution must evaluate and pass the independent
     schedule checker. *)
  let spec =
    Repro_dse.Solution.spec (Repro_dse.Solution.all_software app platform)
  in
  match Repro_sched.Validate.evaluated spec with
  | Ok () -> Ok (app, platform)
  | Error problems ->
    Error ("invalid input model: " ^ String.concat "; " problems)

let load_inputs job =
  load ~app:job.app ~platform_file:job.platform_file ~clbs:job.clbs

let result_fields ~status ?restarts (result : Explorer.result) =
  let eval = result.Explorer.best_eval in
  let open Json in
  [
    ("status", Str status);
    ("best_cost", Num result.Explorer.best_cost);
    ("makespan", Num eval.Repro_sched.Searchgraph.makespan);
    ("n_contexts", num_int eval.Repro_sched.Searchgraph.n_contexts);
    ("iterations_run", num_int result.Explorer.iterations_run);
    ("accepted", num_int result.Explorer.accepted);
    ("infeasible", num_int result.Explorer.infeasible);
    ("wall_seconds", Num result.Explorer.wall_seconds);
    (* CRC of the canonical solution text: lets two runs (a clean one
       and a kill/resume or reclaimed one) be compared for bit-identity
       without shipping the whole solution. *)
    ( "solution",
      Str
        (Repro_util.Checkpoint.crc32_hex
           (Repro_dse.Solution.encode result.Explorer.best)) );
  ]
  @
  match restarts with
  | None -> []
  | Some report ->
    [
      ( "restart_statuses",
        Arr
          (Array.to_list report.Explorer.restart_outcomes
          |> List.map (fun o -> Str (Repro_util.Parallel.outcome_name o))) );
      ("degraded_restarts", num_int report.Explorer.degraded);
    ]

let explorer_config job =
  (* [of_json] leaves an sa job a cooling move; other engines spend all
     [iters] and ignore the split, which a warmup of 0 keeps well
     formed. *)
  let warmup =
    match job.engine with None | Some "sa" -> job.warmup | Some _ -> Some 0
  in
  {
    Explorer.anneal = Annealer.for_budget ~seed:job.seed ?warmup job.iters;
    moves = Repro_dse.Moves.fixed_architecture;
    objective =
      (if job.serialized then Explorer.Makespan_serialized
       else Explorer.Makespan);
  }
