(* The racing portfolio meta-engine: run several registered engines
   under one Engine.S contract.  Three schedules share one lane
   machinery — budget-sliced round-robin, parallel racing with hedged
   cancellation, and pipelined warm-start chains — and a slice that
   raises faults its lane (racing lanes run under
   Parallel.map_outcomes), so a crashing or faulted member degrades to
   a salvaged lane instead of sinking the portfolio.  See portfolio.mli
   for the contract. *)

module Clock = Repro_util.Clock
module Rng = Repro_util.Rng
module Parallel = Repro_util.Parallel
module Checkpoint = Repro_util.Checkpoint
module Log = Repro_util.Log

type mode = Round_robin | Race | Chain

type spec = {
  mode : mode;
  members : string list;
  slice : int option;
  target_cost : float option;
}

let default_members = [ "greedy"; "hill" ]

let default_spec =
  { mode = Round_robin; members = default_members; slice = None;
    target_cost = None }

let mode_token = function Round_robin -> "rr" | Race -> "race" | Chain -> "chain"

(* The canonical spelling is the engine's registry name and the
   identity stamped into checkpoints: equal canonical strings mean
   "the same portfolio", whatever separators the user typed.  The full
   default shortens to the bare registry key. *)
let canonical spec =
  if spec = default_spec then "portfolio"
  else
    String.concat ":"
      ("portfolio" :: mode_token spec.mode
      :: String.concat "+" spec.members
      :: ((match spec.slice with
           | None -> []
           | Some s -> [ Printf.sprintf "slice=%d" s ])
         @
         match spec.target_cost with
         | None -> []
         | Some c -> [ Printf.sprintf "target=%.12g" c ]))

let is_spec text =
  text = "portfolio" || String.starts_with ~prefix:"portfolio:" text

let parse_spec text =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error ("portfolio spec: " ^ m)) fmt in
  let strip_prefix ~prefix tok =
    if String.starts_with ~prefix tok then
      Some
        (String.sub tok (String.length prefix)
           (String.length tok - String.length prefix))
    else None
  in
  match String.split_on_char ':' text with
  | "portfolio" :: tokens ->
    let mode = ref None and members = ref None in
    let slice = ref None and target = ref None in
    let set what cell value =
      match !cell with
      | Some previous when previous <> value ->
        fail "%s given twice in %S" what text
      | _ ->
        cell := Some value;
        Ok ()
    in
    let rec fold = function
      | [] -> Ok ()
      | tok :: rest ->
        let* () =
          match tok with
          | "" -> fail "empty token in %S" text
          | "rr" -> set "mode" mode Round_robin
          | "race" -> set "mode" mode Race
          | "chain" -> set "mode" mode Chain
          | _ -> (
            match strip_prefix ~prefix:"slice=" tok with
            | Some v -> (
              match int_of_string_opt v with
              | Some s when s >= 1 -> set "slice" slice s
              | _ -> fail "slice wants a positive integer, got %S" v)
            | None -> (
              match strip_prefix ~prefix:"target=" tok with
              | Some v -> (
                match float_of_string_opt v with
                | Some c when Float.is_finite c -> set "target cost" target c
                | _ -> fail "target wants a finite cost, got %S" v)
              | None ->
                (* A member list: engine names joined with '+' (or ','
                   where the shell context allows it). *)
                let names =
                  String.split_on_char '+' tok
                  |> List.concat_map (String.split_on_char ',')
                in
                if List.exists (fun n -> n = "") names then
                  fail "empty member name in %S" tok
                else if List.exists is_spec names then
                  fail "members must be base engines, not portfolios"
                else set "members" members names))
        in
        fold rest
    in
    let* () = fold tokens in
    Ok
      {
        mode = Option.value ~default:Round_robin !mode;
        members = Option.value ~default:default_members !members;
        slice = !slice;
        target_cost = !target;
      }
  | _ ->
    fail "expected portfolio[:rr|race|chain][:e1+e2+...][:slice=N][:target=C], \
          got %S" text

(* ---- lanes -------------------------------------------------------- *)

type lane_state =
  | L_pending
  | L_alive
  | L_finished
  | L_won
  | L_cancelled
  | L_faulted of string

type lane_report = {
  member : string;
  state : string;
  iterations : int;
  evaluations : int;
  best : float;
}

let state_name = function
  | L_pending -> "pending"
  | L_alive -> "running"
  | L_finished -> "finished"
  | L_won -> "won"
  | L_cancelled -> "cancelled"
  | L_faulted e -> "faulted: " ^ e

type lane = {
  index : int;
  engine : Engine.t;
  ename : string;
  b : int;  (* this lane's iteration budget, constant across slices *)
  mutable session : Engine.session option;  (* from the first slice on *)
  mutable st : lane_state;
  mutable done_ : int;  (* member iterations completed (cumulative) *)
  mutable target : int;  (* active slice target, absolute *)
  mutable evals : int;  (* cumulative, replaced by each slice outcome *)
  mutable acc : int;
  mutable best_cost : float;  (* infinity until the first boundary *)
  mutable live_best : float;  (* the member's best during a slice *)
  mutable init_cost : float;  (* nan until the first boundary *)
}

let lane_view lane =
  {
    member = lane.ename;
    state = state_name lane.st;
    iterations = lane.done_;
    evaluations = lane.evals;
    best = lane.best_cost;
  }

(* The portfolio's checkpoint state, carried by the driver's container
   as the codec's state block: the round-robin cursor, whether the
   container's best is real, and every lane with its blob — a live
   member's payload wrapped as a whole checkpoint file, or a faulted
   lane's reason. *)
type saved = { cursor : int; has_best : bool; lanes : (lane * string) array }

let lane_code lane =
  match lane.st with
  | L_pending -> 'p'
  | L_alive -> 'a'
  | L_finished | L_won -> 'f'
  | L_cancelled -> 'c'
  | L_faulted _ -> 'x'

let opt_h v = if Float.is_nan v then "-" else Printf.sprintf "%h" v

let encode_saved name saved =
  let b = Buffer.create 4096 in
  Printf.bprintf b "spec %s\n" name;
  Printf.bprintf b "cursor %d\n" saved.cursor;
  Printf.bprintf b "incumbent %d\n" (Bool.to_int saved.has_best);
  Printf.bprintf b "lanes %d\n" (Array.length saved.lanes);
  Array.iter
    (fun (lane, blob) ->
      Printf.bprintf b "lane %d %c %d %d %d %d %d %s %s %d\n" lane.index
        (lane_code lane)
        (Bool.to_int (not (Float.is_nan lane.init_cost)))
        lane.done_ lane.target lane.evals lane.acc
        (opt_h lane.best_cost) (opt_h lane.init_cost)
        (String.length blob);
      Buffer.add_string b blob;
      Buffer.add_char b '\n')
    saved.lanes;
  Buffer.contents b

(* The inverse of [encode_saved]; [templates] are the run's own lanes,
   whose fixed fields (engine, budget) the decoded lanes copy. *)
let decode_saved name templates text =
  let ( let* ) = Result.bind in
  let k = Array.length templates in
  let pos = ref 0 in
  (* The next line, read by [scan] (a [Scanf.sscanf] of it). *)
  let line what scan =
    match String.index_from_opt text !pos '\n' with
    | None -> Error "truncated state"
    | Some j -> (
      let l = String.sub text !pos (j - !pos) in
      pos := j + 1;
      try scan l
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        Error ("bad " ^ what ^ " line"))
  in
  let* () =
    line "spec" (fun l ->
        Scanf.sscanf l "spec %s%!" (fun s ->
            if s = name then Ok ()
            else
              Error
                (Printf.sprintf
                   "taken as %s — this portfolio is configured differently (%s)"
                   s name)))
  in
  let* cursor =
    line "cursor" (fun l ->
        Scanf.sscanf l "cursor %d%!" (fun c ->
            if c >= 0 && c < k then Ok c else Error "bad cursor line"))
  in
  let* has_best =
    line "incumbent" (fun l ->
        Scanf.sscanf l "incumbent %d%!" (function
          | 0 -> Ok false
          | 1 -> Ok true
          | _ -> Error "bad incumbent line"))
  in
  let* () =
    line "lanes" (fun l ->
        Scanf.sscanf l "lanes %d%!" (fun n ->
            if n = k then Ok ()
            else
              Error
                (Printf.sprintf
                   "taken with %d member lanes, this portfolio has %d" n k)))
  in
  let flt = function "-" -> nan | v -> float_of_string v in
  (* The third field (the lane has reached a boundary) is implied by
     the initial cost. *)
  let rec read_lanes i acc =
    if i = k then Ok (Array.of_list (List.rev acc))
    else
      let* lane, code, n =
        line "lane" (fun l ->
            Scanf.sscanf l "lane %d %c %d %d %d %d %d %s %s %d%!"
              (fun idx code _ done_ target evals acc_n bc ic n ->
                let best_cost = flt bc in
                if idx <> i || n < 0 || !pos + n >= String.length text then
                  Error (Printf.sprintf "bad lane %d line" i)
                else
                  Ok
                    ( {
                        (templates.(i)) with
                        done_;
                        target;
                        evals;
                        acc = acc_n;
                        best_cost;
                        live_best = best_cost;
                        init_cost = flt ic;
                      },
                      code,
                      n )))
      in
      let blob = String.sub text !pos n in
      pos := !pos + n + 1;
      let* st =
        match code with
        | _ when text.[!pos - 1] <> '\n' -> Error "bad blob framing"
        | 'p' -> Ok L_pending
        | 'a' -> Ok L_alive
        | 'f' -> Ok L_finished
        | 'c' -> Ok L_cancelled
        | 'x' -> Ok (L_faulted blob)
        | _ -> Error (Printf.sprintf "bad lane %d state" i)
      in
      read_lanes (i + 1) (({ lane with st }, blob) :: acc)
  in
  let* lanes = read_lanes 0 [] in
  Ok { cursor; has_best; lanes }

(* ---- the engine --------------------------------------------------- *)

let member_engines spec =
  let rec go = function
    | [] -> Ok []
    | name :: rest ->
      Result.bind (Engine_registry.find name) (fun eng ->
          Result.map (fun tail -> eng :: tail) (go rest))
  in
  go spec.members

(* The portfolio's session.  Every lane holds its member's live
   session, and one slice is one [advance] of it: nothing is encoded
   until the portfolio's own payload is taken. *)
let start_portfolio ?report ?payload ~spec ~engines (ctx : Engine.context) =
  let start_clock = Clock.mono () in
  let name = canonical spec in
  let k = List.length engines in
  let b_total = ctx.Engine.budget.Engine.iterations in
  let budget_of i =
    match spec.mode with
    | Race -> b_total
    | Round_robin | Chain -> (b_total / k) + if i < b_total mod k then 1 else 0
  in
  (* The slicing quantum: with a target cost the race checks for a
     winner every iteration (the one-boundary cancellation-latency
     guarantee); otherwise slices are a modest fraction of the budget
     so schedules interleave. *)
  let slice_q =
    match spec.slice with
    | Some s -> s
    | None -> (
      match (spec.mode, spec.target_cost) with
      | Race, Some _ -> 1
      | Race, None -> max 1 (b_total / 16)
      | (Round_robin | Chain), _ -> max 1 (b_total / (4 * k)))
  in
  let lanes =
    Array.of_list engines
    |> Array.mapi (fun i eng ->
           {
             index = i;
             engine = eng;
             ename = Engine.name eng;
             b = budget_of i;
             session = None;
             st = L_pending;
             done_ = 0;
             target = 0;
             evals = 0;
             acc = 0;
             best_cost = infinity;
             live_best = infinity;
             init_cost = nan;
           })
  in
  let best = ref None in
  let status = ref Engine.Interrupted in
  let wall_offset = ref 0.0 in
  let cursor = ref 0 in
  let gobs = ref 0 in
  let evals_total () = Array.fold_left (fun n l -> n + l.evals) 0 lanes in
  let acc_total () = Array.fold_left (fun n l -> n + l.acc) 0 lanes in
  let iterations_total () =
    match spec.mode with
    | Race -> Array.fold_left (fun n l -> max n l.done_) 0 lanes
    | Round_robin | Chain -> Array.fold_left (fun n l -> n + l.done_) 0 lanes
  in
  let initial_cost () =
    match Array.find_opt (fun l -> not (Float.is_nan l.init_cost)) lanes with
    | Some l -> l.init_cost
    | None -> nan
  in
  (* A member's context: its own seed and budget, and an observer that
     tracks its best for the target self-stop and, in sequential
     schedules, forwards the observation at the portfolio's count. *)
  let member_context ?warm_start lane =
    let observe (p : Engine.probe) =
      lane.live_best <- p.Engine.best;
      match ctx.Engine.observe with
      | Some f when spec.mode <> Race ->
        let pb =
          match !best with
          | Some (_, c) -> Float.min c p.Engine.best
          | None -> p.Engine.best
        in
        f { p with Engine.iteration = !gobs; best = pb };
        incr gobs
      | _ -> ()
    in
    Engine.context ~observe ?warm_start ~app:ctx.Engine.app
      ~platform:ctx.Engine.platform
      ~seed:(ctx.Engine.seed + (65_537 * lane.index))
      ~iterations:lane.b ()
  in
  (* The lane's member session, from its first slice on. *)
  let start_member ?payload ?warm_start lane =
    Result.map
      (fun s ->
        lane.session <- Some s;
        s)
      (Engine.start lane.engine ?payload (member_context ?warm_start lane))
  in
  let codec =
    {
      Engine.engine = "portfolio";
      version = 2;
      encode = encode_saved name;
      decode = decode_saved name lanes;
    }
  in
  let ( let* ) = Result.bind in
  let* () =
    match payload with
    | None -> Ok ()
    | Some text ->
      let* r = Engine.decode_payload codec ctx text in
      let saved = r.Engine.state in
      cursor := saved.cursor;
      wall_offset := r.Engine.elapsed;
      best :=
        if saved.has_best then Some (r.Engine.best, r.Engine.best_cost)
        else None;
      let rec restore i =
        if i = k then Ok ()
        else
          let lane, blob = saved.lanes.(i) in
          lanes.(i) <- lane;
          let* () =
            if lane.st <> L_alive then Ok ()
            else
              let source = Printf.sprintf "lane %d" i in
              let* payload =
                Checkpoint.of_string ~source ~kind:Engine.checkpoint_kind blob
              in
              Result.map_error
                (fun m -> source ^ ": " ^ m)
                (Result.map ignore (start_member ~payload lane))
          in
          restore (i + 1)
      in
      let* () = restore 0 in
      gobs := iterations_total ();
      Ok ()
  in

  (* -- running one slice of one lane -------------------------------- *)
  (* The member's boundary predicate, in short-circuit order: the slice
     boundary first, then the lane's own target-cost self-stop, then —
     in sequential schedules — the caller's [until] at the portfolio's
     iteration count, so an interrupt lands within one member
     iteration.  [cut] records that [until] ended the slice. *)
  let slice ?until ~warm ~cut lane () =
    if lane.done_ >= lane.target then
      lane.target <- min (lane.done_ + slice_q) lane.b;
    let session =
      match lane.session with
      | Some s -> s
      | None -> (
        match start_member ?warm_start:warm lane with
        | Ok s -> s
        | Error msg -> failwith msg)
    in
    let base = iterations_total () - lane.done_ in
    let slice_end = lane.target in
    lane.live_best <- lane.best_cost;
    let probe i =
      i >= slice_end
      || (match spec.target_cost with
          | Some c -> lane.live_best <= c
          | None -> false)
      ||
      match until with
      | Some until ->
        cut := until (base + i);
        !cut
      | None -> false
    in
    ignore (session.Engine.advance ~until:probe);
    session.Engine.outcome ()
  in
  let absorb lane (o : Engine.outcome) =
    lane.done_ <- o.Engine.iterations_run;
    lane.evals <- o.Engine.evaluations;
    lane.acc <- o.Engine.accepted;
    lane.best_cost <- o.Engine.best_cost;
    if Float.is_nan lane.init_cost then lane.init_cost <- o.Engine.initial_cost;
    (match !best with
     | Some (_, c) when not (o.Engine.best_cost < c) -> ()
     | Some _ | None -> best := Some (o.Engine.best, o.Engine.best_cost));
    lane.st <-
      (if o.Engine.status = Engine.Complete then L_finished else L_alive)
  in
  let fault lane error =
    lane.st <- L_faulted error;
    Log.warn "portfolio %s: lane %d (%s) lost: %s; best-so-far salvaged"
      name lane.index lane.ename error
  in

  (* -- schedules ----------------------------------------------------- *)
  let schedulable lane =
    match lane.st with L_pending | L_alive -> true | _ -> false
  in
  (* Deterministic: the lowest-indexed lane whose own best meets the
     target at this boundary. *)
  let winner_lane () =
    match spec.target_cost with
    | None -> None
    | Some c ->
      Array.find_opt
        (fun l ->
          (match l.st with L_alive | L_finished -> true | _ -> false)
          && l.best_cost <= c)
        lanes
  in
  let finished () =
    match winner_lane () with
    | Some w ->
      Array.iter
        (fun l -> if l != w && schedulable l then l.st <- L_cancelled)
        lanes;
      w.st <- L_won;
      true
    | None -> (
      match ctx.Engine.budget.Engine.max_evaluations with
      | Some m -> evals_total () >= m
      | None -> false)
  in
  (* One step of a schedule: [None] when no lane is left to run, else
     whether [until] cut the step short.  After every whole step a
     lane at the target wins the hedge and cancels the losers, an
     exhausted evaluation budget completes the run, and [until] is
     polled at the portfolio's iteration count. *)
  let rec run_schedule ~until step =
    match step ~until with
    | None -> Engine.Complete
    | Some true -> Engine.Interrupted
    | Some false ->
      if finished () then Engine.Complete
      else if until (iterations_total ()) then Engine.Interrupted
      else run_schedule ~until step
  in
  (* A slice cut short by [until] stays the cursor's lane, so the next
     [advance] finishes it exactly as an uncut run would. *)
  let sequential_step pick warm ~until =
    Option.map
      (fun lane ->
        let cut = ref false in
        (match slice ~until ~warm:(warm ()) ~cut lane () with
         | o -> absorb lane o
         | exception exn -> fault lane (Printexc.to_string exn));
        cursor := if !cut then lane.index else (lane.index + 1) mod k;
        !cut)
      (pick ())
  in
  (* Racing lanes run on other domains and must not call the caller's
     [until] there, so the race polls it between rounds only
     (cancellation latency: one slice). *)
  let race_step ~until:_ =
    let active =
      Array.of_list (List.filter schedulable (Array.to_list lanes))
    in
    let n = Array.length active in
    if n = 0 then None
    else begin
      Parallel.map_outcomes ~jobs:n n (fun j ~stop:_ ->
          slice ~warm:ctx.Engine.warm_start ~cut:(ref false) active.(j) ())
      |> Array.iteri (fun j -> function
           | Parallel.Done o -> absorb active.(j) o
           | Parallel.Failed { error; _ } -> fault active.(j) error
           | outcome -> fault active.(j) (Parallel.outcome_name outcome));
      Some false
    end
  in
  let step =
    match spec.mode with
    | Round_robin ->
      let pick () =
        let rec go j n =
          if n = 0 then None
          else
            let lane = lanes.(j mod k) in
            if schedulable lane then Some lane else go (j + 1) (n - 1)
        in
        go !cursor k
      in
      sequential_step pick (fun () -> ctx.Engine.warm_start)
    | Chain ->
      (* Each chain stage inherits the incumbent of the stages before
         it; the first stage takes the caller's own warm start. *)
      sequential_step
        (fun () -> Array.find_opt schedulable lanes)
        (fun () ->
          match !best with
          | Some (s, _) -> Some s
          | None -> ctx.Engine.warm_start)
    | Race -> race_step
  in
  let advance ~until =
    if !status <> Engine.Complete then status := run_schedule ~until step;
    !status
  in

  (* -- the outcome and the payload ----------------------------------- *)
  let elapsed () = !wall_offset +. Clock.mono () -. start_clock in
  let outcome () =
    (match report with
     | Some f -> f (Array.map lane_view lanes)
     | None -> ());
    match !best with
    | None ->
      let reason =
        Array.to_list lanes
        |> List.find_map (fun l ->
               match l.st with L_faulted e -> Some e | _ -> None)
        |> Option.value ~default:"no lane produced a result"
      in
      failwith (Printf.sprintf "%s: all member lanes lost (%s)" name reason)
    | Some (solution, cost) ->
      {
        Engine.best = solution;
        best_cost = cost;
        initial_cost = initial_cost ();
        iterations_run = iterations_total ();
        evaluations = evals_total ();
        accepted = acc_total ();
        wall_seconds = elapsed ();
        status = !status;
      }
  in
  let payload () =
    let blob lane =
      match (lane.st, lane.session) with
      | L_alive, Some s ->
        Checkpoint.to_string ~kind:Engine.checkpoint_kind (s.Engine.payload ())
      | L_faulted e, _ -> e
      | _ -> ""
    in
    (* Before any lane has produced a best the container still needs a
       solution; [has_best] tells a resumed run to ignore it. *)
    let best_solution, best_cost =
      match !best with
      | Some b -> b
      | None ->
        (Solution.all_software ctx.Engine.app ctx.Engine.platform, infinity)
    in
    Engine.encode_payload codec ctx
      {
        Engine.iteration = iterations_total ();
        evaluations = evals_total ();
        accepted = acc_total ();
        initial_cost = initial_cost ();
        best_cost;
        elapsed = elapsed ();
        (* The portfolio never draws from this stream: each member's
           own RNG words travel inside its embedded checkpoint. *)
        rng = Rng.create ctx.Engine.seed;
        best = best_solution;
        state =
          {
            cursor = !cursor;
            has_best = Option.is_some !best;
            lanes = Array.map (fun l -> (l, blob l)) lanes;
          };
      }
  in
  Ok { Engine.advance; outcome; payload }

let make ?report spec =
  Result.bind (member_engines spec) (fun engines ->
      let canonical_name = canonical spec in
      Ok
        (module struct
          let name = canonical_name

          let describe =
            "portfolio meta-engine over registered members (round-robin \
             slices, hedged racing, warm-start chains)"

          let knobs =
            Printf.sprintf
              "mode %s; members %s; slice %s; target %s; one iteration = one \
               member iteration (sum across lanes; max in racing mode)"
              (mode_token spec.mode)
              (String.concat "+" spec.members)
              (match spec.slice with
               | None -> "auto"
               | Some s -> string_of_int s)
              (match spec.target_cost with
               | None -> "none"
               | Some c -> Printf.sprintf "%g" c)

          let default_iterations =
            let defaults = List.map Engine.default_iterations engines in
            match spec.mode with
            | Race -> List.fold_left max 1 defaults
            | Round_robin | Chain -> List.fold_left ( + ) 0 defaults

          let start ?payload ctx =
            start_portfolio ?report ?payload ~spec ~engines ctx
        end : Engine.S))

let of_spec ?report text =
  Result.bind (parse_spec text) (fun spec -> make ?report spec)

let engine () =
  match make default_spec with
  | Ok e -> e
  | Error msg -> failwith ("portfolio: default members unregistered: " ^ msg)

let resolve ?report text =
  if is_spec text then of_spec ?report text else Engine_registry.find text
