type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type field = string * Json_lite.t

(* Global sink configuration, mutex-protected: events may come from
   worker domains.  stderr lines are emitted in one [output_string] so
   concurrent domains never interleave mid-line. *)
let lock = Mutex.create ()
let threshold = ref Info
let jsonl_path = ref None
let tag = ref "dse"

let set_level l =
  Mutex.lock lock;
  threshold := l;
  Mutex.unlock lock

let set_sink path =
  Mutex.lock lock;
  jsonl_path := path;
  Mutex.unlock lock

let set_tag t =
  Mutex.lock lock;
  tag := t;
  Mutex.unlock lock

let enabled l =
  Mutex.lock lock;
  let t = !threshold in
  Mutex.unlock lock;
  severity l >= severity t

let env_var = "REPRO_LOG"

let configure_from_env () =
  match Option.bind (Sys.getenv_opt env_var) level_of_name with
  | Some l -> set_level l
  | None -> ()

let human_line level msg fields =
  let b = Buffer.create 96 in
  let t = Unix.localtime (Clock.wall ()) in
  Printf.bprintf b "[%s] %02d:%02d:%02d %-5s %s" !tag t.Unix.tm_hour
    t.Unix.tm_min t.Unix.tm_sec
    (String.uppercase_ascii (level_name level))
    msg;
  List.iter
    (fun (k, v) -> Printf.bprintf b " %s=%s" k (Json_lite.to_string v))
    fields;
  Buffer.add_char b '\n';
  Buffer.contents b

let json_line level msg fields =
  Json_lite.obj
    (("ts", Json_lite.Num (Clock.wall ()))
     :: ("level", Json_lite.Str (level_name level))
     :: ("msg", Json_lite.Str msg)
     :: fields)

let event level ?(fields = []) msg =
  Mutex.lock lock;
  let t = !threshold and sink = !jsonl_path in
  Mutex.unlock lock;
  if severity level >= severity t then begin
    output_string stderr (human_line level msg fields);
    flush stderr;
    match sink with
    | None -> ()
    | Some path -> (
      try Atomic_io.append_line path (json_line level msg fields)
      with Sys_error _ | Unix.Unix_error _ ->
        (* A broken log sink must never take down the work it logs. *)
        ())
  end

let logf level ?fields fmt =
  Printf.ksprintf (fun msg -> event level ?fields msg) fmt

let info ?fields fmt = logf Info ?fields fmt
let warn ?fields fmt = logf Warn ?fields fmt
let error ?fields fmt = logf Error ?fields fmt
