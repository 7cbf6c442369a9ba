let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs jobs n =
  let j = match jobs with Some j -> j | None -> default_jobs () in
  if j < 1 then invalid_arg "Parallel: jobs < 1";
  min j n

(* Work stealing off a shared counter: each domain claims the next
   unclaimed index until the list is drained.  Item [i]'s result lands
   in slot [i], so collection order is item order regardless of which
   domain ran what.  [item] is the per-index body; it must not raise
   ([map_outcomes] turns every failure into an outcome), so every
   domain drains to the end and is joined before [run] returns. *)
let run ?jobs n item =
  if n < 0 then invalid_arg "Parallel.map_outcomes: negative size";
  let jobs = resolve_jobs jobs n in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (item i);
        worker ()
      end
    in
    let team = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join team;
    Array.map
      (function Some v -> v | None -> assert false (* all slots filled *))
      results
  end

type 'a outcome =
  | Done of 'a
  | Failed of { exn : exn; error : string; trace : string }
  | Timed_out of 'a option
  | Skipped

let outcome_name = function
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Timed_out _ -> "timed-out"
  | Skipped -> "skipped"

let outcome_value = function
  | Done v | Timed_out (Some v) -> Some v
  | Failed _ | Timed_out None | Skipped -> None

let map_outcomes ?jobs ?timeout ?should_stop n body =
  (match timeout with
   | Some seconds when seconds < 0.0 || Float.is_nan seconds ->
     invalid_arg "Parallel.map_outcomes: negative timeout"
   | _ -> ());
  let stop_requested =
    match should_stop with Some probe -> probe | None -> fun () -> false
  in
  let item i =
    (* An item never starts once a global stop is pending: the slot is
       [Skipped], distinguishable from work that ran and failed. *)
    if stop_requested () then Skipped
    else
      let expired =
        match timeout with
        | None -> fun () -> false
        | Some seconds -> Clock.deadline ~seconds
      in
      let stop () = stop_requested () || expired () in
      match
        Fault.check Fault.Worker i;
        body i ~stop
      with
      | value ->
        (* A cooperative body that observed its deadline returns its
           best-so-far; the outcome still says the budget ran out. *)
        if expired () then Timed_out (Some value) else Done value
      | exception exn ->
        let trace =
          Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
        in
        if expired () then Timed_out None
        else Failed { exn; error = Printexc.to_string exn; trace }
  in
  (* [item] catches everything, so one pathological slot cannot cost
     the others their results. *)
  run ?jobs n item
