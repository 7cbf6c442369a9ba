module Stats = Repro_util.Stats

type instance = {
  temperature : unit -> float;
  start : mean:float -> stddev:float -> horizon:int -> unit;
  observe : cost:float -> accepted:bool -> unit;
  capture : unit -> float array;
  restore : float array -> unit;
}

type t = { name : string; instantiate : unit -> instance }

let name t = t.name
let instantiate t = t.instantiate ()
let temperature i = i.temperature ()
let start i ~mean ~stddev ~horizon = i.start ~mean ~stddev ~horizon
let observe i ~cost ~accepted = i.observe ~cost ~accepted
let capture i = i.capture ()
let restore i a = i.restore a

let check_length ~schedule ~want a =
  if Array.length a <> want then
    invalid_arg
      (Printf.sprintf "Schedule.restore: %s wants %d values, got %d" schedule
         want (Array.length a))

(* Lam's collapse function g(rho): the move-acceptance factor that
   maximizes the cooling rate under quasi-equilibrium. *)
let lam_gain rho =
  let r = Float.max 1e-6 (Float.min rho 1.0) in
  4.0 *. r *. ((1.0 -. r) ** 2.0) /. ((2.0 -. r) ** 2.0)

let lam ?(quality = 0.01) ?(smoothing = 0.02) () =
  if quality <= 0.0 then invalid_arg "Schedule.lam: quality <= 0";
  let instantiate () =
    let s = ref 0.0 in
    let sigma0 = ref 1.0 in
    let costs = Stats.Smoothed.create ~weight:smoothing in
    let acceptance = Stats.Acceptance.create ~weight:smoothing in
    let started = ref false in
    let start ~mean ~stddev ~horizon:_ =
      started := true;
      (* Seed the smoothed estimators with the warmup distribution and
         start at the equilibrium of the sampled landscape: T0 = sigma0,
         i.e. s0 * sigma0 = 1, where the Lam step is well-scaled (the
         relative step then equals quality * g(rho)). *)
      Stats.Smoothed.add costs mean;
      sigma0 := Float.max 1e-9 stddev;
      s := 1.0 /. !sigma0
    in
    let temperature () = if !s <= 0.0 then infinity else 1.0 /. !s in
    let observe ~cost ~accepted =
      if !started then begin
        Stats.Smoothed.add costs cost;
        Stats.Acceptance.record acceptance accepted;
        (* Once the system freezes the smoothed variance vanishes; keep
           sigma bounded away from 0 so the step cannot diverge. *)
        let sigma =
          Float.max (1e-3 *. !sigma0) (Stats.Smoothed.stddev costs)
        in
        let rho = Stats.Acceptance.ratio acceptance in
        let ds =
          quality /. sigma /. (Float.max 1e-12 (!s *. !s *. sigma *. sigma))
          *. lam_gain rho
        in
        (* In quasi-equilibrium sigma ~ 1/s and the relative step is
           quality * g(rho) <= quality / 4; cap it so transient bad
           estimates cannot quench the system. *)
        let ds = Float.min ds (0.05 *. !s) in
        s := !s +. ds
      end
    in
    let capture () =
      Array.concat
        [
          [| (if !started then 1.0 else 0.0); !s; !sigma0 |];
          Stats.Smoothed.state costs;
          Stats.Acceptance.state acceptance;
        ]
    in
    let restore a =
      check_length ~schedule:"lam" ~want:7 a;
      started := a.(0) <> 0.0;
      s := a.(1);
      sigma0 := a.(2);
      Stats.Smoothed.restore costs (Array.sub a 3 3);
      Stats.Acceptance.restore acceptance (Array.sub a 6 1)
    in
    { temperature; start; observe; capture; restore }
  in
  {
    name = Printf.sprintf "lam(quality %.12g, smoothing %.12g)" quality smoothing;
    instantiate;
  }

let swartz ?shrink () =
  (match shrink with
   | Some s when s <= 0.0 || s >= 1.0 ->
     invalid_arg "Schedule.swartz: shrink must be in (0,1)"
   | Some _ | None -> ());
  let instantiate () =
    let temperature = ref infinity in
    let horizon = ref 1 in
    let step = ref 0 in
    let shrink_factor = ref (Option.value ~default:0.999 shrink) in
    let acceptance = Stats.Acceptance.create ~weight:0.02 in
    let start ~mean:_ ~stddev ~horizon:h =
      horizon := max 1 h;
      temperature := 40.0 *. Float.max 1e-9 stddev;
      (* Unless pinned by the caller, pick the shrink so that steady
         shrinking spans ~8 decades of temperature over the horizon —
         the schedule then adapts to any budget. *)
      match shrink with
      | Some _ -> ()
      | None ->
        shrink_factor := exp (log 1e-8 /. float_of_int !horizon)
    in
    let target () =
      let progress = float_of_int !step /. float_of_int !horizon in
      if progress < 0.15 then 0.44 +. (0.56 *. (560.0 ** (-.progress /. 0.15)))
      else if progress < 0.65 then 0.44
      else 0.44 *. (440.0 ** (-.(progress -. 0.65) /. 0.35))
    in
    let observe ~cost:_ ~accepted =
      if !temperature <> infinity then begin
        incr step;
        Stats.Acceptance.record acceptance accepted;
        if Stats.Acceptance.ratio acceptance > target () then
          temperature := !temperature *. !shrink_factor
        else temperature := !temperature /. !shrink_factor
      end
    in
    let capture () =
      Array.concat
        [
          [|
            !temperature;
            float_of_int !horizon;
            float_of_int !step;
            !shrink_factor;
          |];
          Stats.Acceptance.state acceptance;
        ]
    in
    let restore a =
      check_length ~schedule:"swartz" ~want:5 a;
      temperature := a.(0);
      horizon := int_of_float a.(1);
      step := int_of_float a.(2);
      shrink_factor := a.(3);
      Stats.Acceptance.restore acceptance (Array.sub a 4 1)
    in
    { temperature = (fun () -> !temperature); start; observe; capture; restore }
  in
  {
    name =
      (match shrink with
       | None -> "swartz"
       | Some s -> Printf.sprintf "swartz(shrink %.12g)" s);
    instantiate;
  }

let geometric ?(alpha = 0.95) ?(steps_per_level = 100) () =
  if alpha <= 0.0 || alpha >= 1.0 then
    invalid_arg "Schedule.geometric: alpha must be in (0,1)";
  if steps_per_level <= 0 then
    invalid_arg "Schedule.geometric: steps_per_level <= 0";
  let instantiate () =
    let temperature = ref infinity in
    let step = ref 0 in
    let start ~mean:_ ~stddev ~horizon:_ =
      temperature := 40.0 *. Float.max 1e-9 stddev
    in
    let observe ~cost:_ ~accepted:_ =
      if !temperature <> infinity then begin
        incr step;
        if !step mod steps_per_level = 0 then temperature := !temperature *. alpha
      end
    in
    let capture () = [| !temperature; float_of_int !step |] in
    let restore a =
      check_length ~schedule:"geometric" ~want:2 a;
      temperature := a.(0);
      step := int_of_float a.(1)
    in
    { temperature = (fun () -> !temperature); start; observe; capture; restore }
  in
  {
    name =
      Printf.sprintf "geometric(alpha %.12g, steps %d)" alpha steps_per_level;
    instantiate;
  }

let infinite () =
  let instantiate () =
    {
      temperature = (fun () -> infinity);
      start = (fun ~mean:_ ~stddev:_ ~horizon:_ -> ());
      observe = (fun ~cost:_ ~accepted:_ -> ());
      capture = (fun () -> [||]);
      restore = (fun a -> check_length ~schedule:"infinite" ~want:0 a);
    }
  in
  { name = "infinite"; instantiate }
