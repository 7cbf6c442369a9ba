module Rng = Repro_util.Rng
module Stats = Repro_util.Stats

type config = {
  iterations : int;
  warmup_iterations : int;
  schedule : Schedule.t;
  seed : int;
}

(* The registry's one recipe.  Lam's quality 150/total makes a small
   budget cool faster and still sweep the whole temperature range; at
   the default 50000 moves it is the same double as the historical
   0.003. *)
let for_budget ?(seed = 1) ?warmup ?schedule total =
  let warmup =
    match warmup with Some w -> w | None -> max 1 (min 1_200 (total / 10))
  in
  if warmup < 0 then invalid_arg "Annealer: negative warmup";
  if warmup >= total then
    invalid_arg
      (Printf.sprintf
         "sa warmup %d leaves no cooling iteration out of %d (want warmup < \
          iters)"
         warmup total);
  let schedule =
    match schedule with
    | Some s -> s
    | None -> Schedule.lam ~quality:(150.0 /. float_of_int total) ()
  in
  { iterations = total - warmup; warmup_iterations = warmup; schedule; seed }

type chain = {
  schedule : Schedule.instance;
  warmup : Stats.Running.t;
  mutable current_cost : float;
  mutable temperature : float;
}

let check_budget config =
  if config.iterations < 0 || config.warmup_iterations < 0 then
    invalid_arg "Annealer: negative budget"

let start config ~cost =
  check_budget config;
  let warmup = Stats.Running.create () in
  Stats.Running.add warmup cost;
  {
    schedule = Schedule.instantiate config.schedule;
    warmup;
    current_cost = cost;
    temperature = infinity;
  }

(* Three lines, floats in "%h" so they round-trip bit-exactly. *)
let encode_chain chain =
  let floats tag a =
    String.concat " " (tag :: List.map (Printf.sprintf "%h") (Array.to_list a))
  in
  String.concat "\n"
    [
      floats "schedule" (Schedule.capture chain.schedule);
      floats "warmup" (Stats.Running.state chain.warmup);
      floats "current" [| chain.current_cost |];
    ]

let decode_chain config lines =
  let ( let* ) = Result.bind in
  let parse tag line =
    match String.split_on_char ' ' line with
    | t :: fields when t = tag -> (
      match List.map float_of_string_opt fields with
      | parsed when List.for_all Option.is_some parsed ->
        Ok (Array.of_list (List.map Option.get parsed))
      | _ -> Error ("bad " ^ tag ^ " line"))
    | _ -> Error ("expected a " ^ tag ^ " line")
  in
  match lines with
  | schedule :: warmup :: current :: rest -> (
    let* schedule = parse "schedule" schedule in
    let* warmup = parse "warmup" warmup in
    let* cost =
      match parse "current" current with
      | Ok [| cost |] -> Ok cost
      | _ -> Error "bad current line"
    in
    let restore () =
      check_budget config;
      let instance = Schedule.instantiate config.schedule in
      Schedule.restore instance schedule;
      let stats = Stats.Running.create () in
      Stats.Running.restore stats warmup;
      { schedule = instance; warmup = stats; current_cost = cost;
        temperature = infinity }
    in
    match restore () with
    | chain -> Ok (chain, rest)
    | exception Invalid_argument m -> Error m)
  | _ -> Error "truncated chain state"

type move = Infeasible | Rejected | Accepted

(* Iteration g < warmup is a warmup move at infinite temperature; the
   schedule starts at g = warmup, everything after cools adaptively.
   A boundary before g = warmup leaves the schedule unstarted, so a
   chain restored there re-runs [Schedule.start] from the restored
   warmup statistics. *)
let step config chain rng state ~iteration ~cost ~propose =
  let warmup = config.warmup_iterations in
  if iteration = warmup then
    Schedule.start chain.schedule
      ~mean:(Stats.Running.mean chain.warmup)
      ~stddev:(Stats.Running.stddev chain.warmup)
      ~horizon:config.iterations;
  let cooling = iteration >= warmup in
  let temperature =
    if cooling then Schedule.temperature chain.schedule else infinity
  in
  chain.temperature <- temperature;
  match propose rng state with
  | None ->
    (* The drawn move is structurally invalid ("not performed" in
       the paper's terms): no state change happened, so the cooling
       schedule does not observe it either. *)
    Infeasible
  | Some undo ->
    let candidate = cost state in
    let delta = candidate -. chain.current_cost in
    let accept =
      delta <= 0.0
      || temperature = infinity
      || Rng.float rng 1.0 < exp (-.delta /. temperature)
    in
    if accept then chain.current_cost <- candidate else undo ();
    if cooling then
      Schedule.observe chain.schedule ~cost:chain.current_cost
        ~accepted:accept
    else Stats.Running.add chain.warmup chain.current_cost;
    if accept then Accepted else Rejected
