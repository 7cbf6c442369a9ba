open Repro_taskgraph
open Repro_arch
open Repro_sched
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module Rng = Repro_util.Rng

type mode = {
  mode_name : string;
  edges : App.edge list;
  members : int list;
  deadline : float;
}

(* For each mode, an application over *local* ids plus the local/global
   correspondence. *)
type realized_mode = {
  descriptor : mode;
  app : App.t;
  to_global : int array;
}

type problem = {
  problem_name : string;
  tasks : Task.t array;
  modes : realized_mode list;
}

let make_problem ~name ~tasks ~modes =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if modes = [] then invalid_arg "Multi_mode.make_problem: no mode";
  let realize_mode descriptor =
    let members = List.sort_uniq compare descriptor.members in
    if members = [] then
      invalid_arg
        (Printf.sprintf "Multi_mode: mode %s has no member" descriptor.mode_name);
    List.iter
      (fun v ->
        if v < 0 || v >= n then
          invalid_arg
            (Printf.sprintf "Multi_mode: mode %s references unknown task %d"
               descriptor.mode_name v))
      members;
    let to_global = Array.of_list members in
    let to_local = Hashtbl.create (List.length members) in
    Array.iteri (fun local globl -> Hashtbl.add to_local globl local) to_global;
    let local_tasks =
      List.mapi
        (fun local globl ->
          let task = tasks.(globl) in
          Task.make ~id:local ~name:task.Task.name
            ~functionality:task.Task.functionality ~sw_time:task.Task.sw_time
            ~impls:(Array.to_list task.Task.impls))
        members
    in
    let local_edges =
      List.map
        (fun { App.src; dst; kbytes } ->
          match (Hashtbl.find_opt to_local src, Hashtbl.find_opt to_local dst)
          with
          | Some src, Some dst -> { App.src; dst; kbytes }
          | None, _ | _, None ->
            invalid_arg
              (Printf.sprintf
                 "Multi_mode: mode %s has an edge outside its members"
                 descriptor.mode_name))
        descriptor.edges
    in
    let app =
      try
        App.make
          ~name:(Printf.sprintf "%s.%s" name descriptor.mode_name)
          ~deadline:descriptor.deadline ~tasks:local_tasks ~edges:local_edges ()
      with Invalid_argument msg ->
        invalid_arg
          (Printf.sprintf "Multi_mode: mode %s: %s" descriptor.mode_name msg)
    in
    { descriptor; app; to_global }
  in
  { problem_name = name; tasks; modes = List.map realize_mode modes }

type assignment = { hw : bool array; impl : int array }

type mode_result = {
  mode : mode;
  spec : Searchgraph.spec;
  eval : Searchgraph.eval;
  meets : bool;
}

type result = {
  assignment : assignment;
  per_mode : mode_result list;
  worst_slack_ratio : float;
  iterations_run : int;
  wall_seconds : float;
}

(* Deterministic per-mode realization of the shared genes: clustering
   for the temporal partitioning, HEFT-ranked list scheduling for the
   processor order (the same decode as the GA baseline). *)
let realize_mode platform assignment realized =
  let app = realized.app in
  let n = App.size app in
  let impl_choice =
    Array.init n (fun local ->
        let k = assignment.impl.(realized.to_global.(local)) in
        if k < Task.impl_count (App.task app local) then k else 0)
  in
  let selected local = Task.impl (App.task app local) impl_choice.(local) in
  let area =
    Array.init n (fun local ->
        if assignment.hw.(realized.to_global.(local)) then
          (selected local).Task.clbs
        else -1)
  in
  let context = Array.make n (-1) in
  let count =
    Clustering.contexts app ~limit:(Platform.n_clb platform) ~area ~context
  in
  let time =
    Array.init n (fun local ->
        if context.(local) < 0 then (App.task app local).Task.sw_time
        else (selected local).Task.hw_time)
  in
  let comm =
    Array.init (App.edge_count app) (fun i ->
        let { App.src; dst; kbytes } = App.edge app i in
        if context.(src) < 0 <> (context.(dst) < 0) then
          Platform.transfer_time platform kbytes
        else 0.0)
  in
  let rank = Array.make n 0.0 and order = Array.make n 0 in
  List_sched.upward_rank app ~time ~comm ~rank;
  List_sched.prioritized_topological_order (List_sched.scratch n) app
    ~priority:rank ~order;
  let sw_order = List.filter (fun v -> context.(v) < 0) (Array.to_list order) in
  Searchgraph.single_processor_spec ~app ~platform
    ~binding:(fun local ->
      if context.(local) < 0 then Searchgraph.Sw
      else Searchgraph.Hw context.(local))
    ~impl_choice:(fun local -> impl_choice.(local))
    ~sw_order
    ~contexts:(Clustering.members app ~context count)

let realize problem platform assignment =
  List.map
    (fun realized ->
      (realized.descriptor, realize_mode platform assignment realized))
    problem.modes

let slack_ratio descriptor eval =
  (descriptor.deadline -. eval.Searchgraph.makespan) /. descriptor.deadline

(* The annealer minimizes; feasible-and-large-margin solutions have the
   lowest cost.  Infeasible decodes are heavily penalized but remain
   comparable so the search can climb out. *)
let assignment_cost problem platform assignment =
  List.fold_left
    (fun worst realized ->
      let spec = realize_mode platform assignment realized in
      match Searchgraph.evaluate spec with
      | Some eval -> Float.max worst (-.slack_ratio realized.descriptor eval)
      | None ->
        (* Dominates any feasible cost: the all-software initial
           assignment always decodes, so the best never lands here. *)
        Float.max worst 1e9)
    neg_infinity problem.modes

module Problem_state = struct
  type state = {
    problem : problem;
    platform : Platform.t;
    assignment : assignment;
  }

  let cost s = assignment_cost s.problem s.platform s.assignment

  let snapshot s =
    {
      s with
      assignment =
        {
          hw = Array.copy s.assignment.hw;
          impl = Array.copy s.assignment.impl;
        };
    }

  let propose rng s =
    let n = Array.length s.assignment.hw in
    let v = Rng.int rng n in
    if Rng.bernoulli rng 0.3 then begin
      let task = s.problem.tasks.(v) in
      let count = Task.impl_count task in
      if count < 2 then None
      else begin
        let old = s.assignment.impl.(v) in
        let pick = Rng.int rng (count - 1) in
        s.assignment.impl.(v) <- (if pick >= old then pick + 1 else pick);
        Some (fun () -> s.assignment.impl.(v) <- old)
      end
    end
    else begin
      s.assignment.hw.(v) <- not s.assignment.hw.(v);
      Some (fun () -> s.assignment.hw.(v) <- not s.assignment.hw.(v))
    end
end

module Engine = Annealer.Make (Problem_state)

let explore ?(seed = 1) ?(iterations = 20_000) problem platform =
  let start_clock = Repro_util.Clock.mono () in
  let n = Array.length problem.tasks in
  let state =
    {
      Problem_state.problem;
      platform;
      assignment = { hw = Array.make n false; impl = Array.make n 0 };
    }
  in
  let config =
    {
      Annealer.iterations;
      warmup_iterations = max 200 (iterations / 20);
      schedule = Schedule.lam ~quality:(150.0 /. float_of_int iterations) ();
      seed;
    }
  in
  let outcome = Engine.run config state in
  let assignment = outcome.Annealer.best.Problem_state.assignment in
  let per_mode =
    List.map
      (fun realized ->
        let spec = realize_mode platform assignment realized in
        match Searchgraph.evaluate spec with
        | Some eval ->
          {
            mode = realized.descriptor;
            spec;
            eval;
            meets = eval.Searchgraph.makespan <= realized.descriptor.deadline;
          }
        | None ->
          (* The all-software assignment is always feasible, so the
             annealer's best — never worse than the initial state —
             decodes feasibly in every mode. *)
          assert false)
      problem.modes
  in
  let worst_slack_ratio =
    List.fold_left
      (fun worst r -> Float.min worst (slack_ratio r.mode r.eval))
      infinity per_mode
  in
  {
    assignment;
    per_mode;
    worst_slack_ratio;
    iterations_run = outcome.Annealer.iterations_run;
    wall_seconds = Repro_util.Clock.mono () -. start_clock;
  }
