module Rng = Repro_util.Rng
module Clock = Repro_util.Clock
module Checkpoint = Repro_util.Checkpoint
module Log = Repro_util.Log
module App_io = Repro_taskgraph.App_io
module Platform_io = Repro_arch.Platform_io

type budget = {
  iterations : int;
  time_limit : float option;
  max_evaluations : int option;
}

type status = Complete | Interrupted

let status_name = function Complete -> "complete" | Interrupted -> "interrupted"

type probe = { iteration : int; cost : float; best : float; accepted : bool }

type resume_mode = Resume_never | Resume_if_exists | Resume_required

type checkpoint = { path : string; every : int; resume : resume_mode }

type context = {
  app : Repro_taskgraph.App.t;
  platform : Repro_arch.Platform.t;
  seed : int;
  budget : budget;
  should_stop : (unit -> bool) option;
  observe : (probe -> unit) option;
  checkpoint : checkpoint option;
  warm_start : Solution.t option;
}

let context ?time_limit ?max_evaluations ?should_stop ?observe ?checkpoint
    ?warm_start ~app ~platform ~seed ~iterations () =
  if iterations < 0 then invalid_arg "Engine.context: negative budget";
  (match time_limit with
   | Some s when s <= 0.0 ->
     invalid_arg "Engine.context: non-positive time limit"
   | Some _ | None -> ());
  (match max_evaluations with
   | Some m when m <= 0 ->
     invalid_arg "Engine.context: non-positive evaluation budget"
   | Some _ | None -> ());
  (match checkpoint with
   | Some { path = ""; _ } -> invalid_arg "Engine.context: empty checkpoint path"
   | Some { every; _ } when every <= 0 ->
     invalid_arg "Engine.context: non-positive checkpoint cadence"
   | Some _ | None -> ());
  {
    app;
    platform;
    seed;
    budget = { iterations; time_limit; max_evaluations };
    should_stop;
    observe;
    checkpoint;
    warm_start;
  }

type outcome = {
  best : Solution.t;
  best_cost : float;
  initial_cost : float;
  iterations_run : int;
  evaluations : int;
  accepted : int;
  wall_seconds : float;
  status : status;
}

(* Fold the explicit probe and the wall-clock budget into one boundary
   predicate; the deadline starts when the probe is built, i.e. at the
   top of the engine's run. *)
let stop_probe ctx =
  let deadline =
    Option.map (fun seconds -> Clock.deadline ~seconds) ctx.budget.time_limit
  in
  match (ctx.should_stop, deadline) with
  | None, None -> fun () -> false
  | Some stop, None -> stop
  | None, Some expired -> expired
  | Some stop, Some expired -> fun () -> stop () || expired ()

module type S = sig
  val name : string
  val describe : string
  val knobs : string
  val default_iterations : int
  val run : context -> outcome
end

type t = (module S)

let name (module E : S) = E.name
let describe (module E : S) = E.describe
let knobs (module E : S) = E.knobs
let default_iterations (module E : S) = E.default_iterations
let run (module E : S) ctx = E.run ctx

(* Defined before [step], whose labels it shares, so that [drive]'s
   loop reads its step results without annotations. *)
type 'state snapshot = {
  iteration : int;
  evaluations : int;
  accepted : int;
  initial_cost : float;
  best_cost : float;
  elapsed : float;
  rng : Rng.t;
  best : Solution.t;
  state : 'state;
}

type 'state step = {
  state : 'state;
  cost : float;
  accepted : bool;
  evaluations : int;
}

type 'state codec = {
  engine : string;
  version : int;
  encode : 'state -> string;
  decode : string -> ('state, string) result;
}

(* ---- driver checkpoints ------------------------------------------- *)

let checkpoint_kind = "dse-engine"

(* A checkpoint only resumes against the inputs, seed and budget it was
   taken under; the fingerprint ties the file to them.  The engine name
   and codec version are separate header lines so their mismatches get
   their own (more helpful) diagnostics. *)
let fingerprint ctx =
  Checkpoint.crc32_hex
    (String.concat "\n"
       [
         App_io.to_string ctx.app;
         Platform_io.to_string ctx.platform;
         Printf.sprintf "drive %d %d %s" ctx.seed ctx.budget.iterations
           (match ctx.budget.max_evaluations with
            | None -> "-"
            | Some m -> string_of_int m);
       ])

(* Driver payload: line-oriented, floats in "%h" so every value
   round-trips bit-exactly.  The best solution and the engine's own
   state block close the file; [best]/[state] marker lines separate
   them (no line of {!Solution.encode} is a bare "best"/"state", and
   the state block runs to the end of the file). *)
let payload_of codec ctx snap =
  let b = Buffer.create 1024 in
  Printf.bprintf b "engine %s %d\n" codec.engine codec.version;
  Printf.bprintf b "fingerprint %s\n" (fingerprint ctx);
  Printf.bprintf b "driver %d %d %d\n" snap.iteration snap.evaluations
    snap.accepted;
  Printf.bprintf b "costs %h %h\n" snap.initial_cost snap.best_cost;
  Printf.bprintf b "wall %h\n" snap.elapsed;
  Buffer.add_string b "rng";
  Array.iter (fun w -> Printf.bprintf b " %Lx" w) (Rng.state snap.rng);
  Buffer.add_char b '\n';
  Buffer.add_string b "best\n";
  Buffer.add_string b (Solution.encode snap.best);
  Buffer.add_string b "state\n";
  Buffer.add_string b (codec.encode snap.state);
  Buffer.contents b

let snapshot_of_payload codec ctx payload =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error ("checkpoint: " ^ m)) fmt in
  let lines = String.split_on_char '\n' payload in
  let take tag = function
    | [] -> fail "missing %s line" tag
    | line :: rest -> (
      match String.split_on_char ' ' line with
      | t :: fields when t = tag -> Ok (fields, rest)
      | _ -> fail "expected a %s line" tag)
  in
  let* fields, lines = take "engine" lines in
  let* () =
    match fields with
    | [ name; version ] ->
      if name <> codec.engine then
        fail "written by engine %s, not %s" name codec.engine
      else if int_of_string_opt version <> Some codec.version then
        fail "engine %s state codec version %s, this build reads %d" name
          version codec.version
      else Ok ()
    | _ -> fail "bad engine line"
  in
  let* fields, lines = take "fingerprint" lines in
  let* () =
    match fields with
    | [ fp ] when fp = fingerprint ctx -> Ok ()
    | [ _ ] -> fail "produced under a different application/platform/seed/budget"
    | _ -> fail "bad fingerprint line"
  in
  let* fields, lines = take "driver" lines in
  let* iteration, evaluations, accepted =
    match List.map int_of_string_opt fields with
    | [ Some g; Some e; Some a ] -> Ok (g, e, a)
    | _ -> fail "bad driver line"
  in
  let* fields, lines = take "costs" lines in
  let* initial_cost, best_cost =
    match List.map float_of_string_opt fields with
    | [ Some i; Some b ] -> Ok (i, b)
    | _ -> fail "bad costs line"
  in
  let* fields, lines = take "wall" lines in
  let* elapsed =
    match List.map float_of_string_opt fields with
    | [ Some w ] -> Ok w
    | _ -> fail "bad wall line"
  in
  let* fields, lines = take "rng" lines in
  let* rng_words =
    let parsed = List.map (fun s -> Int64.of_string_opt ("0x" ^ s)) fields in
    if List.length parsed = 4 && List.for_all Option.is_some parsed then
      Ok (Array.of_list (List.map Option.get parsed))
    else fail "bad rng line"
  in
  let* best_lines, state_lines =
    match lines with
    | "best" :: rest -> (
      let rec split acc = function
        | "state" :: tail -> Ok (List.rev acc, tail)
        | line :: tail -> split (line :: acc) tail
        | [] -> fail "missing state section"
      in
      split [] rest)
    | _ -> fail "missing best section"
  in
  let* best =
    Solution.decode ctx.app ctx.platform (String.concat "\n" best_lines)
  in
  let* state =
    match codec.decode (String.concat "\n" state_lines) with
    | Ok s -> Ok s
    | Error m -> fail "%s state: %s" codec.engine m
  in
  Ok
    {
      iteration;
      evaluations;
      accepted;
      initial_cost;
      best_cost;
      elapsed;
      rng = Rng.of_state rng_words;
      best;
      state;
    }

let save codec ctx snap =
  match ctx.checkpoint with
  | Some ck ->
    Checkpoint.save ck.path ~kind:checkpoint_kind (payload_of codec ctx snap)
  | None -> ()

let restore codec ctx =
  let load path =
    match Checkpoint.load path ~kind:checkpoint_kind with
    | Error _ as e -> e
    | Ok payload -> (
      match snapshot_of_payload codec ctx payload with
      | Ok _ as ok -> ok
      | Error msg -> Error (path ^ ": " ^ msg))
  in
  match ctx.checkpoint with
  | None -> None
  | Some ck -> (
    match ck.resume with
    | Resume_never -> None
    | Resume_required -> (
      match load ck.path with Ok r -> Some r | Error msg -> failwith msg)
    | Resume_if_exists ->
      if not (Sys.file_exists ck.path) then None
      else (
        match load ck.path with
        | Ok r -> Some r
        | Error msg ->
          Log.warn "ignoring unusable checkpoint: %s" msg;
          None))

(* The generic search loop: budget accounting, best-snapshot
   bookkeeping, cooperative interruption, per-iteration observation —
   and now crash safety — live here once, instead of once per
   baseline.  Engines supply the initial state, the single-iteration
   step and (for checkpointing) a state codec; everything the driver
   does is deterministic given the context, so an engine built on it
   inherits the determinism and resume contracts for free. *)
let drive ?codec ctx ~init ~step ~snapshot =
  let start_clock = Clock.wall () in
  let stop = stop_probe ctx in
  (match (ctx.checkpoint, codec) with
   | Some _, None ->
     invalid_arg
       "Engine.drive: checkpointing requested but the engine has no state \
        codec"
   | _ -> ());
  (* [init] runs only on a fresh start; a resumed run restores the
     engine's working state through the codec instead. *)
  let start =
    match Option.bind codec (fun codec -> restore codec ctx) with
    | Some r -> r
    | None ->
      let rng = Rng.create ctx.seed in
      let state, cost, evaluations = init rng in
      {
        iteration = 0;
        evaluations;
        accepted = 0;
        initial_cost = cost;
        best_cost = cost;
        elapsed = 0.0;
        rng;
        best = snapshot state;
        state;
      }
  in
  let rng = start.rng and initial_cost = start.initial_cost in
  let start_iteration = start.iteration and wall_offset = start.elapsed in
  let best = ref start.best in
  let best_cost = ref start.best_cost in
  let evaluations = ref start.evaluations in
  let accepted = ref start.accepted in
  let status = ref Complete in
  let state = ref start.state in
  let g = ref start_iteration in
  let save_checkpoint () =
    match codec with
    | Some codec ->
      save codec ctx
        {
          iteration = !g;
          evaluations = !evaluations;
          accepted = !accepted;
          initial_cost;
          best_cost = !best_cost;
          elapsed = wall_offset +. Clock.wall () -. start_clock;
          rng;
          best = !best;
          state = !state;
        }
    | None -> ()
  in
  (try
     while !g < ctx.budget.iterations do
       if stop () then begin
         status := Interrupted;
         (* Flush the boundary state so a kill right after the stop
            probe loses no work. *)
         save_checkpoint ();
         raise Exit
       end;
       (match ctx.budget.max_evaluations with
        | Some m when !evaluations >= m -> raise Exit
        | _ -> ());
       (match ctx.checkpoint with
        | Some ck
          when !g > start_iteration && (!g - start_iteration) mod ck.every = 0
          ->
          save_checkpoint ()
        | _ -> ());
       let r = step rng ~iteration:!g !state in
       state := r.state;
       evaluations := !evaluations + r.evaluations;
       if r.accepted then incr accepted;
       if r.cost < !best_cost then begin
         best_cost := r.cost;
         best := snapshot r.state
       end;
       (match ctx.observe with
        | Some f ->
          f { iteration = !g; cost = r.cost; best = !best_cost;
              accepted = r.accepted }
        | None -> ());
       incr g
     done
   with Exit -> ());
  {
    best = !best;
    best_cost = !best_cost;
    initial_cost;
    iterations_run = !g;
    evaluations = !evaluations;
    accepted = !accepted;
    wall_seconds = wall_offset +. Clock.wall () -. start_clock;
    status = !status;
  }
