(* The racing portfolio meta-engine: run several registered engines
   under one Engine.S contract.  Three schedules share one lane
   machinery — budget-sliced round-robin, parallel racing with hedged
   cancellation, and pipelined warm-start chains — and every lane is
   supervised through Parallel.map_outcomes, so a crashing, faulted or
   overrunning member degrades to a salvaged lane instead of sinking
   the portfolio.  See portfolio.mli for the contract. *)

module Clock = Repro_util.Clock
module Rng = Repro_util.Rng
module Parallel = Repro_util.Parallel
module Atomic_io = Repro_util.Atomic_io
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
  | L_timed_out

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
  | L_timed_out -> "timed-out"

type lane = {
  index : int;
  engine : Engine.t;
  ename : string;
  b : int;  (* this lane's iteration budget, constant across slices *)
  scratch : string;  (* member checkpoint file behind the slicing *)
  mutable st : lane_state;
  mutable started : bool;
  mutable done_ : int;  (* member iterations completed (cumulative) *)
  mutable target : int;  (* active slice target, absolute *)
  mutable evals : int;  (* cumulative, replaced by each slice outcome *)
  mutable acc : int;
  mutable best_cost : float;  (* infinity until the first boundary *)
  mutable init_cost : float;
  mutable has_init : bool;
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
   ({!Engine.save}/{!Engine.restore}) as the codec's state block: the
   round-robin cursor, whether the container's best is real, and every
   lane with its blob — a live member's whole checkpoint file, or a
   faulted lane's reason. *)
type saved = { cursor : int; has_best : bool; lanes : (lane * string) array }

let lane_code lane =
  match lane.st with
  | L_pending -> 'p'
  | L_alive -> 'a'
  | L_finished | L_won -> 'f'
  | L_cancelled -> 'c'
  | L_faulted _ -> 'x'
  | L_timed_out -> 't'

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
        (Bool.to_int lane.started)
        lane.done_ lane.target lane.evals lane.acc
        (opt_h lane.best_cost) (opt_h lane.init_cost)
        (String.length blob);
      Buffer.add_string b blob;
      Buffer.add_char b '\n')
    saved.lanes;
  Buffer.contents b

(* The inverse of [encode_saved]; [templates] are the run's own lanes,
   whose fixed fields (engine, budget, scratch path) the decoded lanes
   copy. *)
let decode_saved name templates text =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let k = Array.length templates in
  let pos = ref 0 in
  let len = String.length text in
  let next_line () =
    if !pos > len then Error "truncated state"
    else
      match String.index_from_opt text !pos '\n' with
      | None ->
        let l = String.sub text !pos (len - !pos) in
        pos := len + 1;
        Ok l
      | Some j ->
        let l = String.sub text !pos (j - !pos) in
        pos := j + 1;
        Ok l
  in
  let take tag =
    let* line = next_line () in
    match String.split_on_char ' ' line with
    | t :: fields when t = tag -> Ok fields
    | _ -> fail "expected a %s line" tag
  in
  let* fields = take "spec" in
  let* () =
    match fields with
    | [ s ] when s = name -> Ok ()
    | [ s ] ->
      fail "taken as %s — this portfolio is configured differently (%s)" s
        name
    | _ -> fail "bad spec line"
  in
  let* fields = take "cursor" in
  let* cursor =
    match List.map int_of_string_opt fields with
    | [ Some c ] when c >= 0 && c < k -> Ok c
    | _ -> fail "bad cursor line"
  in
  let* fields = take "incumbent" in
  let* has_best =
    match fields with
    | [ "0" ] -> Ok false
    | [ "1" ] -> Ok true
    | _ -> fail "bad incumbent line"
  in
  let* fields = take "lanes" in
  let* () =
    match fields with
    | [ n ] when int_of_string_opt n = Some k -> Ok ()
    | [ n ] -> fail "taken with %s member lanes, this portfolio has %d" n k
    | _ -> fail "bad lanes line"
  in
  let rec read_lanes i acc =
    if i = k then Ok (Array.of_list (List.rev acc))
    else
      let* fields = take "lane" in
      let* record =
        match fields with
        | [ idx; code; started; done_; target; evals; acc_n; bc; ic; blob_n ]
          -> (
          let ints =
            List.map int_of_string_opt
              [ idx; started; done_; target; evals; acc_n; blob_n ]
          in
          let flt s = if s = "-" then Some nan else float_of_string_opt s in
          match (ints, flt bc, flt ic) with
          | ( [ Some idx; Some started; Some done_; Some target; Some evals;
                Some acc_n; Some blob_n ],
              Some best_cost, Some init_cost )
            when idx = i && String.length code = 1 && blob_n >= 0
                 && !pos + blob_n <= len ->
            let blob = String.sub text !pos blob_n in
            pos := !pos + blob_n;
            let* nl = next_line () in
            if nl <> "" then fail "lane %d: bad blob framing" i
            else
              let st =
                match code.[0] with
                | 'a' -> L_alive
                | 'f' -> L_finished
                | 'c' -> L_cancelled
                | 'x' -> L_faulted blob
                | 't' -> L_timed_out
                | _ -> L_pending
              in
              Ok
                ( {
                    (templates.(i)) with
                    st;
                    started = started = 1;
                    done_;
                    target;
                    evals;
                    acc = acc_n;
                    best_cost;
                    init_cost;
                    has_init = not (Float.is_nan init_cost);
                  },
                  blob )
          | _ -> fail "bad lane %d line" i)
        | _ -> fail "bad lane %d line" i
      in
      read_lanes (i + 1) (record :: acc)
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

let run_portfolio ?report ~spec ~engines (ctx : Engine.context) =
  let start_clock = Clock.wall () in
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
     so schedules interleave and checkpoints stay fresh. *)
  let slice_q =
    match spec.slice with
    | Some s -> s
    | None -> (
      match (spec.mode, spec.target_cost) with
      | Race, Some _ -> 1
      | Race, None -> max 1 (b_total / 16)
      | (Round_robin | Chain), _ -> max 1 (b_total / (4 * k)))
  in
  (* External interruption — the caller's probe and the wall-clock
     budget — latched, so a probe that answers [true] once still ends
     the run.  Sequential schedules join it into every member's own
     boundary probe; racing lanes run on other domains and must not
     call an arbitrary caller closure there, so the race polls it
     between rounds instead (cancellation latency: one slice).  Either
     way only the main domain polls it, so a plain ref latches it. *)
  let outer =
    let probe = Engine.stop_probe ctx and latched = ref false in
    fun () ->
      if not !latched then latched := probe ();
      !latched
  in
  let temp_mode = ctx.Engine.checkpoint = None in
  let scratch_of i =
    match ctx.Engine.checkpoint with
    | Some ck -> ck.Engine.path ^ ".m" ^ string_of_int i
    | None -> Filename.temp_file "dse-portfolio" (Printf.sprintf ".m%d.ckpt" i)
  in
  let lanes =
    Array.of_list engines
    |> Array.mapi (fun i eng ->
           {
             index = i;
             engine = eng;
             ename = Engine.name eng;
             b = budget_of i;
             scratch = scratch_of i;
             st = L_pending;
             started = false;
             done_ = 0;
             target = 0;
             evals = 0;
             acc = 0;
             best_cost = infinity;
             init_cost = nan;
             has_init = false;
           })
  in
  let best = ref None in
  let status = ref Engine.Complete in
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
    match Array.find_opt (fun l -> l.has_init) lanes with
    | Some l -> l.init_cost
    | None -> nan
  in

  (* -- the checkpoint: the driver's container, lanes as its state --- *)
  let codec =
    {
      Engine.engine = "portfolio";
      version = 2;
      encode = encode_saved name;
      decode = decode_saved name lanes;
    }
  in
  let save () =
    let blob lane =
      match lane.st with
      | L_alive -> (
        try In_channel.with_open_bin lane.scratch In_channel.input_all
        with Sys_error _ -> "")
      | L_faulted e -> e
      | L_pending | L_finished | L_won | L_cancelled | L_timed_out -> ""
    in
    (* Before any lane has produced a best the container still needs a
       solution; [has_best] tells a resumed run to ignore it. *)
    let best_solution, best_cost =
      match !best with
      | Some b -> b
      | None ->
        (Solution.all_software ctx.Engine.app ctx.Engine.platform, infinity)
    in
    Engine.save codec ctx
      {
        Engine.iteration = iterations_total ();
        evaluations = evals_total ();
        accepted = acc_total ();
        initial_cost = initial_cost ();
        best_cost;
        elapsed = !wall_offset +. Clock.wall () -. start_clock;
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
  (match Engine.restore codec ctx with
   | None -> ()
   | Some r ->
     let saved = r.Engine.state in
     cursor := saved.cursor;
     wall_offset := r.Engine.elapsed;
     best :=
       if saved.has_best then Some (r.Engine.best, r.Engine.best_cost)
       else None;
     Array.iteri
       (fun i (lane, blob) ->
         lanes.(i) <- lane;
         (* Re-materialize the member's own checkpoint so its next
            slice resumes from the embedded state. *)
         if lane.st = L_alive then Atomic_io.write_string lane.scratch blob)
       saved.lanes;
     gobs := iterations_total ());

  (* -- running one slice of one lane -------------------------------- *)
  let run_slice ~sequential ~warm lane =
    let resume =
      if lane.started then Engine.Resume_required else Engine.Resume_never
    in
    let done_live = ref lane.done_ in
    let best_live = ref lane.best_cost in
    let slice_target = lane.target in
    (* Boundary probe, in short-circuit order: the slice boundary
       first (costs no external poll), then the lane's own
       target-cost self-stop, then — in sequential schedules — the
       latched outer token, so an interrupt lands within one member
       iteration. *)
    let probe () =
      !done_live >= slice_target
      || (match spec.target_cost with
          | Some c -> !best_live <= c
          | None -> false)
      || (sequential && outer ())
    in
    let observe (p : Engine.probe) =
      done_live := p.Engine.iteration + 1;
      best_live := p.Engine.best;
      match ctx.Engine.observe with
      | Some f when sequential ->
        let pb =
          match !best with
          | Some (_, c) -> Float.min c p.Engine.best
          | None -> p.Engine.best
        in
        f { p with Engine.iteration = !gobs; best = pb };
        incr gobs
      | _ -> ()
    in
    let mctx =
      Engine.context ~should_stop:probe ~observe
        ~checkpoint:{ Engine.path = lane.scratch; every = max_int; resume }
        ?warm_start:warm ~app:ctx.Engine.app ~platform:ctx.Engine.platform
        ~seed:(ctx.Engine.seed + (65_537 * lane.index))
        ~iterations:lane.b ()
    in
    Engine.run lane.engine mctx
  in
  let absorb lane (o : Engine.outcome) =
    lane.started <- true;
    lane.done_ <- o.Engine.iterations_run;
    lane.evals <- o.Engine.evaluations;
    lane.acc <- o.Engine.accepted;
    lane.best_cost <- o.Engine.best_cost;
    if not lane.has_init then begin
      lane.init_cost <- o.Engine.initial_cost;
      lane.has_init <- true
    end;
    (match !best with
     | Some (_, c) when not (o.Engine.best_cost < c) -> ()
     | Some _ | None -> best := Some (o.Engine.best, o.Engine.best_cost));
    lane.st <-
      (if o.Engine.status = Engine.Complete then L_finished else L_alive)
  in
  let settle lane outcome =
    match outcome with
    | Parallel.Done o -> absorb lane o
    | Parallel.Timed_out (Some o) ->
      absorb lane o;
      lane.st <- L_timed_out;
      Log.warn "portfolio %s: lane %d (%s) timed out; best-so-far salvaged"
        name lane.index lane.ename
    | Parallel.Timed_out None ->
      lane.st <- L_timed_out;
      Log.warn "portfolio %s: lane %d (%s) timed out with nothing to salvage"
        name lane.index lane.ename
    | Parallel.Failed { error; _ } ->
      lane.st <- L_faulted error;
      Log.warn "portfolio %s: lane %d (%s) lost: %s; best-so-far salvaged"
        name lane.index lane.ename error
    | Parallel.Skipped -> lane.st <- L_faulted "skipped"
  in

  (* -- schedules ----------------------------------------------------- *)
  let schedulable lane =
    match lane.st with L_pending | L_alive -> true | _ -> false
  in
  let cancel_losers winner =
    Array.iter
      (fun l ->
        if l != winner && schedulable l then l.st <- L_cancelled)
      lanes;
    winner.st <- L_won
  in
  let target_met () =
    match (spec.target_cost, !best) with
    | Some c, Some (_, bc) -> bc <= c
    | _ -> false
  in
  let winner_lane () =
    (* Deterministic: the lowest-indexed lane whose own best meets the
       target at this boundary. *)
    let found = ref None in
    Array.iter
      (fun l ->
        if
          !found = None
          && (match l.st with
              | L_alive | L_finished -> true
              | _ -> false)
          && (match spec.target_cost with
              | Some c -> l.best_cost <= c
              | None -> false)
        then found := Some l)
      lanes;
    !found
  in
  let evals_exhausted () =
    match ctx.Engine.budget.Engine.max_evaluations with
    | Some m -> evals_total () >= m
    | None -> false
  in
  let exception Stop in
  (* After each slice, in order: a met target completes the hedge (and
     cancels the losers), a latched external stop interrupts (flushing
     the checkpoint), an exhausted evaluation budget completes.  A
     periodic save happens when the slice crossed a multiple of the
     checkpoint cadence ([before] is the iteration total before it). *)
  let boundary_checks ~before =
    (match winner_lane () with
     | Some w when target_met () ->
       cancel_losers w;
       raise Stop
     | _ -> ());
    if outer () then begin
      status := Engine.Interrupted;
      save ();
      raise Stop
    end;
    if evals_exhausted () then raise Stop;
    match ctx.Engine.checkpoint with
    | Some ck
      when iterations_total () / ck.Engine.every > before / ck.Engine.every ->
      save ()
    | _ -> ()
  in
  let run_sequential pick_warm pick_lane =
    try
      let continue_ = ref true in
      while !continue_ do
        match pick_lane () with
        | None -> continue_ := false
        | Some lane ->
          cursor := (lane.index + 1) mod k;
          if lane.done_ >= lane.target then
            lane.target <- min (lane.done_ + slice_q) lane.b;
          let warm = pick_warm lane in
          let before = iterations_total () in
          let outcome =
            (Parallel.map_outcomes ~jobs:1 1 (fun _ ~stop:_ ->
                 run_slice ~sequential:true ~warm lane)).(0)
          in
          settle lane outcome;
          boundary_checks ~before
      done
    with Stop -> ()
  in
  (match spec.mode with
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
     run_sequential (fun _ -> ctx.Engine.warm_start) pick
   | Chain ->
     let pick () = Array.find_opt schedulable lanes in
     (* Each chain stage inherits the incumbent of the stages before
        it; the first stage takes the caller's own warm start. *)
     let warm lane =
       if lane.started then None
       else
         match !best with
         | Some (s, _) -> Some s
         | None -> ctx.Engine.warm_start
     in
     run_sequential warm pick
   | Race -> (
     try
       while Array.exists schedulable lanes do
         let active =
           Array.of_list (List.filter schedulable (Array.to_list lanes))
         in
         Array.iter
           (fun l ->
             if l.done_ >= l.target then
               l.target <- min (l.done_ + slice_q) l.b)
           active;
         let n = Array.length active in
         let before = iterations_total () in
         let outcomes =
           Parallel.map_outcomes ~jobs:n n (fun j ~stop:_ ->
               run_slice ~sequential:false ~warm:ctx.Engine.warm_start
                 active.(j))
         in
         Array.iteri (fun j outcome -> settle active.(j) outcome) outcomes;
         boundary_checks ~before
       done
     with Stop -> ()));
  (* -- the outcome --------------------------------------------------- *)
  let cleanup_scratch () =
    Array.iter
      (fun lane -> try Sys.remove lane.scratch with Sys_error _ -> ())
      lanes
  in
  if temp_mode then cleanup_scratch ()
  else if !status = Engine.Complete then
    (* Finished portfolios keep only their own (self-contained) file,
       like any driven engine; interrupted ones keep the member files
       too — they are rewritten on resume anyway. *)
    cleanup_scratch ();
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
      wall_seconds = !wall_offset +. Clock.wall () -. start_clock;
      status = !status;
    }

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

          let run ctx = run_portfolio ?report ~spec ~engines ctx
        end : Engine.S))

let of_spec ?report text =
  Result.bind (parse_spec text) (fun spec -> make ?report spec)

let engine () =
  match make default_spec with
  | Ok e -> e
  | Error msg -> failwith ("portfolio: default members unregistered: " ^ msg)

let resolve ?report text =
  if is_spec text then of_spec ?report text else Engine_registry.find text
