module Schedule = Repro_anneal.Schedule
module Annealer = Repro_anneal.Annealer
module Rng = Repro_util.Rng
module Engine = Repro_dse.Engine

let test_infinite_schedule () =
  let s = Schedule.instantiate (Schedule.infinite ()) in
  Alcotest.(check bool) "always infinite" true (Schedule.temperature s = infinity);
  Schedule.start s ~mean:5.0 ~stddev:2.0 ~horizon:100;
  Schedule.observe s ~cost:1.0 ~accepted:true;
  Alcotest.(check bool) "still infinite" true (Schedule.temperature s = infinity)

let test_lam_cools () =
  let s = Schedule.instantiate (Schedule.lam ~quality:0.05 ()) in
  Alcotest.(check bool) "hot before start" true (Schedule.temperature s = infinity);
  Schedule.start s ~mean:10.0 ~stddev:2.0 ~horizon:1000;
  let t0 = Schedule.temperature s in
  Alcotest.(check (float 1e-9)) "starts at sigma" 2.0 t0;
  (* Lam's gain vanishes at acceptance ratio 1 (nothing to cool) and at
     0 (out of equilibrium); a balanced mix cools fastest. *)
  for i = 1 to 2000 do
    Schedule.observe s
      ~cost:(10.0 +. float_of_int (i mod 5))
      ~accepted:(i mod 2 = 0)
  done;
  let t1 = Schedule.temperature s in
  Alcotest.(check bool) "cooled" true (t1 < t0);
  Alcotest.(check bool) "monotone positive" true (t1 > 0.0)

let test_lam_stalls_when_frozen () =
  (* With every move rejected, g(rho) -> 0 and cooling nearly stops. *)
  let s = Schedule.instantiate (Schedule.lam ~quality:0.05 ()) in
  Schedule.start s ~mean:10.0 ~stddev:2.0 ~horizon:1000;
  for _ = 1 to 500 do
    Schedule.observe s ~cost:10.0 ~accepted:false
  done;
  let t_mid = Schedule.temperature s in
  for _ = 1 to 500 do
    Schedule.observe s ~cost:10.0 ~accepted:false
  done;
  let t_end = Schedule.temperature s in
  Alcotest.(check bool) "cooling rate collapsed" true
    (t_mid /. t_end < 1.05)

let test_lam_validation () =
  Alcotest.check_raises "bad quality"
    (Invalid_argument "Schedule.lam: quality <= 0") (fun () ->
      ignore (Schedule.lam ~quality:0.0 ()))

let test_swartz_tracks_target () =
  let s = Schedule.instantiate (Schedule.swartz ()) in
  Schedule.start s ~mean:10.0 ~stddev:2.0 ~horizon:1000;
  let t0 = Schedule.temperature s in
  Alcotest.(check (float 1e-6)) "starts at 40 sigma" 80.0 t0;
  (* Acceptance pinned at 1.0 > every target: temperature shrinks. *)
  for _ = 1 to 500 do
    Schedule.observe s ~cost:10.0 ~accepted:true
  done;
  Alcotest.(check bool) "shrinks under high acceptance" true
    (Schedule.temperature s < t0);
  (* All-rejected: temperature must climb back up. *)
  let t_mid = Schedule.temperature s in
  for _ = 1 to 200 do
    Schedule.observe s ~cost:10.0 ~accepted:false
  done;
  Alcotest.(check bool) "recovers under low acceptance" true
    (Schedule.temperature s > t_mid)

let test_geometric () =
  let s = Schedule.instantiate (Schedule.geometric ~alpha:0.5 ~steps_per_level:10 ()) in
  Schedule.start s ~mean:0.0 ~stddev:1.0 ~horizon:100;
  let t0 = Schedule.temperature s in
  for _ = 1 to 10 do
    Schedule.observe s ~cost:0.0 ~accepted:true
  done;
  Alcotest.(check (float 1e-9)) "halved after a level" (t0 /. 2.0)
    (Schedule.temperature s);
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Schedule.geometric: alpha must be in (0,1)") (fun () ->
      ignore (Schedule.geometric ~alpha:1.5 ()))

(* A deliberately rugged 1-D problem: minimize |x - 37| over integers
   with +-1 moves and a local trap at x = 80. *)
module Toy = struct
  type state = { mutable x : int }

  let cost s =
    let base = abs (s.x - 37) in
    (* A deep-ish local minimum away from the optimum. *)
    let trap = if abs (s.x - 80) < 5 then -3 + abs (s.x - 80) else 0 in
    float_of_int (base + trap)

  let propose rng s =
    let old = s.x in
    s.x <- s.x + (if Rng.bool rng then 1 else -1);
    Some (fun () -> s.x <- old)
end

type toy_run = { toy : Toy.state; chain : Annealer.chain }

(* The toy anneals on the engine driver as the explorer and multi-mode
   mapping do: one driver iteration is one Metropolis step over
   warmup + cooling iterations, and the best is the position [x]. *)
let anneal ?observe config x =
  let codec =
    {
      Engine.engine = "toy";
      version = 1;
      encode =
        (fun r ->
          Printf.sprintf "%s\n%d" (Annealer.encode_chain r.chain) r.toy.Toy.x);
      decode =
        (fun text ->
          let lines = String.split_on_char '\n' text in
          match Annealer.decode_chain config lines with
          | Ok (chain, [ x ]) -> Ok { toy = { Toy.x = int_of_string x }; chain }
          | Ok _ -> Error "expected one x line"
          | Error _ as e -> e);
    }
  in
  let filing =
    {
      Engine.inputs = (fun () -> [ "toy" ]);
      encode_best = Printf.sprintf "%d\n";
      decode_best =
        (fun t -> Option.to_result ~none:"bad x" (int_of_string_opt t));
    }
  in
  let init _ =
    let toy = { Toy.x } in
    let cost = Toy.cost toy in
    ({ toy; chain = Annealer.start config ~cost }, cost, 0)
  in
  let step rng ~iteration r =
    let move =
      Annealer.step config r.chain rng r.toy ~iteration ~cost:Toy.cost
        ~propose:Toy.propose
    in
    {
      Engine.state = r;
      cost = r.chain.Annealer.current_cost;
      accepted = move = Annealer.Accepted;
      evaluations = (if move = Annealer.Infeasible then 0 else 1);
    }
  in
  let controls =
    Engine.controls ?observe ~seed:config.Annealer.seed
      ~iterations:
        (config.Annealer.warmup_iterations + config.Annealer.iterations)
      ()
  in
  Engine.run_driven ~codec ~filing controls ~init ~step
    ~snapshot:(fun r -> r.toy.Toy.x)

let test_annealer_minimizes () =
  let config =
    {
      Annealer.iterations = 5_000;
      warmup_iterations = 200;
      schedule = Schedule.lam ~quality:0.01 ();
      seed = 5;
    }
  in
  let outcome = anneal config 90 in
  Alcotest.(check (float 1e-9)) "found the global minimum" 0.0
    outcome.Engine.best_cost;
  Alcotest.(check int) "best state" 37 outcome.Engine.best;
  Alcotest.(check bool) "accepted some moves" true (outcome.Engine.accepted > 0)

let test_annealer_outcome_fields () =
  let config =
    {
      Annealer.iterations = 100;
      warmup_iterations = 50;
      schedule = Schedule.lam ();
      seed = 1;
    }
  in
  let final = ref nan in
  let outcome =
    anneal ~observe:(fun (p : Engine.probe) -> final := p.Engine.cost) config 40
  in
  Alcotest.(check int) "iterations counted" 150 outcome.Engine.iterations_run;
  Alcotest.(check bool) "final >= best" true
    (!final >= outcome.Engine.best_cost)

let test_trace_callback () =
  let config =
    {
      Annealer.iterations = 10;
      warmup_iterations = 5;
      schedule = Schedule.lam ();
      seed = 3;
    }
  in
  (* Numbered as the explorer's trace numbers them: relative to the end
     of warmup. *)
  let iterations = ref [] in
  let observe (p : Engine.probe) =
    iterations := (p.Engine.iteration - config.warmup_iterations) :: !iterations
  in
  ignore (anneal ~observe config 0);
  let recorded = List.rev !iterations in
  Alcotest.(check int) "one event per iteration" 15 (List.length recorded);
  Alcotest.(check (list int)) "warmup negative then cooling"
    [ -5; -4; -3; -2; -1; 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] recorded

(* The paper's interruptibility: a best-so-far exists at every point,
   never worse than the running cost seen so far. *)
let test_best_monotone () =
  let config =
    {
      Annealer.iterations = 2_000;
      warmup_iterations = 100;
      schedule = Schedule.lam ();
      seed = 9;
    }
  in
  let previous_best = ref infinity in
  let monotone = ref true in
  let observe (p : Engine.probe) =
    if p.Engine.best > !previous_best +. 1e-12 then monotone := false;
    previous_best := p.Engine.best
  in
  ignore (anneal ~observe config 90);
  Alcotest.(check bool) "best never regresses" true !monotone

let suite =
  [
    Alcotest.test_case "infinite schedule" `Quick test_infinite_schedule;
    Alcotest.test_case "lam cools" `Quick test_lam_cools;
    Alcotest.test_case "lam stalls when frozen" `Quick test_lam_stalls_when_frozen;
    Alcotest.test_case "lam validation" `Quick test_lam_validation;
    Alcotest.test_case "swartz tracks target" `Quick test_swartz_tracks_target;
    Alcotest.test_case "geometric" `Quick test_geometric;
    Alcotest.test_case "annealer minimizes" `Quick test_annealer_minimizes;
    Alcotest.test_case "outcome fields" `Quick test_annealer_outcome_fields;
    Alcotest.test_case "trace callback" `Quick test_trace_callback;
    Alcotest.test_case "best monotone" `Quick test_best_monotone;
  ]
