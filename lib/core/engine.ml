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

type session = {
  advance : until:(int -> bool) -> status;
  outcome : unit -> outcome;
  payload : unit -> string;
}

module type S = sig
  val name : string
  val describe : string
  val knobs : string
  val default_iterations : int
  val start : ?payload:string -> context -> (session, string) result
end

type t = (module S)

let name (module E : S) = E.name
let describe (module E : S) = E.describe
let knobs (module E : S) = E.knobs
let default_iterations (module E : S) = E.default_iterations
let start (module E : S) = E.start

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
let encode_payload codec ctx snap =
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

(* The payload cut at its marker lines: the header lines, the best
   solution's text and the engine's state text. *)
let sections payload =
  let rec header acc = function
    | [] -> Error "missing best section"
    | "best" :: rest -> best (List.rev acc) [] rest
    | line :: rest -> header (line :: acc) rest
  and best head acc = function
    | [] -> Error "missing state section"
    | "state" :: rest ->
      Ok (head, String.concat "\n" (List.rev acc), String.concat "\n" rest)
    | line :: rest -> best head (line :: acc) rest
  in
  header [] (String.split_on_char '\n' payload)

let payload_incumbent app platform payload =
  match sections payload with
  | Error _ as e -> e
  | Ok (_, best, _) -> (
    match Solution.decode app platform best with
    | Ok _ as ok -> ok
    | Error m -> Error ("incumbent does not fit these inputs: " ^ m))

let decode_payload codec ctx payload =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error ("checkpoint: " ^ m)) fmt in
  let* header, best, state =
    Result.map_error (fun m -> "checkpoint: " ^ m) (sections payload)
  in
  let header = List.map (String.split_on_char ' ') header in
  (* The fields of the header line [tag], each read by [parse]. *)
  let line tag parse =
    match List.find_opt (fun l -> List.hd l = tag) header with
    | None -> fail "missing %s line" tag
    | Some l -> (
      match List.map parse (List.tl l) with
      | vs when List.for_all Option.is_some vs -> Ok (List.map Option.get vs)
      | _ -> fail "bad %s line" tag)
  in
  let* () =
    match line "engine" Option.some with
    | Ok [ name; _ ] when name <> codec.engine ->
      fail "written by engine %s, not %s" name codec.engine
    | Ok [ name; version ] when int_of_string_opt version <> Some codec.version
      ->
      fail "engine %s state codec version %s, this build reads %d" name
        version codec.version
    | Ok [ _; _ ] -> Ok ()
    | Ok _ -> fail "bad engine line"
    | Error _ as e -> e
  in
  let* () =
    match line "fingerprint" Option.some with
    | Ok [ fp ] when fp = fingerprint ctx -> Ok ()
    | Ok [ _ ] -> fail "produced under a different application/platform/seed/budget"
    | Ok _ -> fail "bad fingerprint line"
    | Error _ as e -> e
  in
  let* driver = line "driver" int_of_string_opt in
  let* costs = line "costs" float_of_string_opt in
  let* wall = line "wall" float_of_string_opt in
  let* words = line "rng" (fun w -> Int64.of_string_opt ("0x" ^ w)) in
  match (driver, costs, wall, words) with
  | ( [ iteration; evaluations; accepted ], [ initial_cost; best_cost ],
      [ elapsed ], [ _; _; _; _ ] ) ->
    let* best = Solution.decode ctx.app ctx.platform best in
    let* state =
      match codec.decode state with
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
        rng = Rng.of_state (Array.of_list words);
        best;
        state;
      }
  | _ -> fail "bad driver, costs, wall or rng line"

(* The generic search loop: budget accounting, best-snapshot
   bookkeeping and per-iteration observation live here once, instead
   of once per baseline.  Engines supply the initial state, the
   single-iteration step and a state codec; everything the driver does
   is deterministic given the context, so an engine built on it
   inherits the determinism and resume contracts for free. *)
let drive ?payload ~codec ctx ~init ~step ~snapshot =
  let start_clock = Clock.mono () in
  (* [init] runs only on a fresh start; a resumed run restores the
     engine's working state through the codec instead. *)
  let start =
    match payload with
    | Some text -> decode_payload codec ctx text
    | None ->
      let rng = Rng.create ctx.seed in
      let state, cost, evaluations = init rng in
      Ok
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
  Result.map
    (fun start ->
      let rng = start.rng and initial_cost = start.initial_cost in
      let wall_offset = start.elapsed in
      let best = ref start.best in
      let best_cost = ref start.best_cost in
      let evaluations = ref start.evaluations in
      let accepted = ref start.accepted in
      let status = ref Interrupted in
      let state = ref start.state in
      let g = ref start.iteration in
      let elapsed () = wall_offset +. Clock.mono () -. start_clock in
      (* Boundary checks in order: the budget's end, the caller's
         predicate, the evaluation budget. *)
      let rec advance ~until =
        if !g >= ctx.budget.iterations then Complete
        else if until !g then Interrupted
        else
          match ctx.budget.max_evaluations with
          | Some m when !evaluations >= m -> Complete
          | _ ->
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
            incr g;
            advance ~until
      in
      let advance ~until =
        status := advance ~until;
        !status
      in
      let outcome () =
        {
          best = !best;
          best_cost = !best_cost;
          initial_cost;
          iterations_run = !g;
          evaluations = !evaluations;
          accepted = !accepted;
          wall_seconds = elapsed ();
          status = !status;
        }
      in
      let payload () =
        encode_payload codec ctx
          {
            iteration = !g;
            evaluations = !evaluations;
            accepted = !accepted;
            initial_cost;
            best_cost = !best_cost;
            elapsed = elapsed ();
            rng;
            best = !best;
            state = !state;
          }
      in
      { advance; outcome; payload })
    start

(* A session from the context's checkpoint under its resume mode, or a
   fresh one. *)
let resume_or_start (module E : S) ctx =
  let ok = function Ok s -> s | Error msg -> failwith msg in
  let resume path =
    Result.bind (Checkpoint.load path ~kind:checkpoint_kind) (fun payload ->
        Result.map_error (fun msg -> path ^ ": " ^ msg) (E.start ~payload ctx))
  in
  match ctx.checkpoint with
  | Some { path; resume = Resume_required; _ } -> ok (resume path)
  | Some { path; resume = Resume_if_exists; _ } when Sys.file_exists path -> (
    match resume path with
    | Ok s -> s
    | Error msg ->
      Log.warn "ignoring unusable checkpoint: %s" msg;
      ok (E.start ctx))
  | Some _ | None -> ok (E.start ctx)

(* The one run loop, and the only code that touches checkpoint files:
   the session advances in [every]-iteration chunks with the payload
   written between them, and once more when the stop probe ends the
   run.  The probe folds [should_stop] with the time limit (whose clock
   starts here) and is latched.  A chunk's end is checked first, so
   the boundary a chunk ends at polls the probe once, on the next
   [advance]. *)
let run engine ctx =
  let expired =
    match ctx.budget.time_limit with
    | Some seconds -> Clock.deadline ~seconds
    | None -> fun () -> false
  in
  let should_stop = Option.value ctx.should_stop ~default:(fun () -> false) in
  let stopped = ref false in
  let session = resume_or_start engine ctx in
  let every, save =
    match ctx.checkpoint with
    | Some ck ->
      ( ck.every,
        fun () ->
          Checkpoint.save ck.path ~kind:checkpoint_kind (session.payload ()) )
    | None -> (max_int, ignore)
  in
  let chunk_start = ref (-1) in
  let until i =
    if !chunk_start < 0 then chunk_start := i;
    i - !chunk_start >= every
    || begin
         if not !stopped then stopped := should_stop () || expired ();
         !stopped
       end
  in
  let rec go () =
    if session.advance ~until = Interrupted then begin
      save ();
      chunk_start := -1;
      if not !stopped then go ()
    end
  in
  go ();
  session.outcome ()
