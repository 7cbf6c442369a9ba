type site = Eval | Worker | Job | Lease | Fsck

let site_name = function
  | Eval -> "eval"
  | Worker -> "worker"
  | Job -> "job"
  | Lease -> "lease"
  | Fsck -> "fsck"

let site_of_name = function
  | "eval" -> Some Eval
  | "worker" -> Some Worker
  | "job" -> Some Job
  | "lease" -> Some Lease
  | "fsck" -> Some Fsck
  | _ -> None

let site_names = "eval|worker|job|lease|fsck"

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected msg -> Some (Printf.sprintf "Fault.Injected(%s)" msg)
    | _ -> None)

(* The single [enabled] load is the only cost on the hot path when no
   fault is armed.  The plan table is touched from several domains
   (Parallel workers), hence the mutex. *)
let enabled = Atomic.make false
let lock = Mutex.create ()
let plan : (site * int, unit) Hashtbl.t = Hashtbl.create 7
let eval_ticks = Atomic.make 0

let disarm () =
  Mutex.lock lock;
  Hashtbl.reset plan;
  Mutex.unlock lock;
  Atomic.set eval_ticks 0;
  Atomic.set enabled false

let arm_point ~site ~index =
  if index < 0 then invalid_arg "Fault.arm_point: negative index";
  Mutex.lock lock;
  Hashtbl.replace plan (site, index) ();
  Mutex.unlock lock;
  Atomic.set enabled true

(* Each spec entry fails with a one-line message that names the entry
   and the reason, so a typo in a long $REPRO_FAULTS plan is located
   without bisection. *)
let parse_point point =
  let fail fmt =
    Printf.ksprintf
      (fun why -> Error (Printf.sprintf "bad fault point %S: %s" point why))
      fmt
  in
  let site_of name =
    match site_of_name name with
    | Some site -> Ok site
    | None -> fail "unknown site %S (want %s)" name site_names
  in
  let index_of text =
    match int_of_string_opt text with
    | None -> fail "bad index %S (want a non-negative integer)" text
    | Some i when i < 0 -> fail "negative index %d" i
    | Some i -> Ok i
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' point with
  | [ site; index ] ->
    let* site = site_of site in
    let* index = index_of index in
    Ok (site, index)
  | _ -> fail "want site:index"

let arm spec =
  let points =
    String.split_on_char ',' spec
    |> List.map (fun raw ->
           let point = String.trim raw in
           if point = "" then
             invalid_arg
               (Printf.sprintf
                  "Fault.arm: empty fault point in %S (stray comma?)" spec)
           else
             match parse_point point with
             | Ok p -> p
             | Error msg -> invalid_arg ("Fault.arm: " ^ msg))
  in
  List.iter (fun (site, index) -> arm_point ~site ~index) points

let env_var = "REPRO_FAULTS"

let arm_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some spec -> arm spec

let armed () = Atomic.get enabled

let fire site index =
  Mutex.lock lock;
  let hit = Hashtbl.mem plan (site, index) in
  Mutex.unlock lock;
  if hit then
    raise
      (Injected (Printf.sprintf "injected fault at %s:%d" (site_name site) index))

let check site index = if Atomic.get enabled then fire site index

let tick_eval () =
  if Atomic.get enabled then fire Eval (Atomic.fetch_and_add eval_ticks 1)
