open Repro_taskgraph
open Repro_sched
module Annealer = Repro_anneal.Annealer
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
  let localize descriptor =
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
  { problem_name = name; tasks; modes = List.map localize modes }

type assignment = Gene_decoder.genes = { hw : bool array; impl : int array }

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
  status : Engine.status;
}

(* A mode's restriction of the shared genes, over its local ids.  A
   local task copies its global task's implementations, so every
   in-range global gene is in range locally. *)
let restrict realized assignment =
  let pick genes = Array.map (fun g -> genes.(g)) realized.to_global in
  { hw = pick assignment.hw; impl = pick assignment.impl }

let realize problem platform assignment =
  List.map
    (fun realized ->
      ( realized.descriptor,
        Gene_decoder.spec realized.app platform (restrict realized assignment)
      ))
    problem.modes

let slack_ratio descriptor makespan =
  (descriptor.deadline -. makespan) /. descriptor.deadline

(* The annealer minimizes; feasible-and-large-margin solutions have the
   lowest cost.  Infeasible (cyclic) decodes are heavily penalized but
   remain comparable so the search can climb out.  [scorers] pairs each
   mode with its decode tables. *)
let assignment_cost scorers assignment =
  List.fold_left
    (fun worst (realized, tables) ->
      let makespan =
        Gene_decoder.makespan tables (restrict realized assignment)
      in
      if makespan = infinity then
        (* Dominates any feasible cost: the all-software initial
           assignment always decodes, so the best never lands here. *)
        Float.max worst 1e9
      else Float.max worst (-.slack_ratio realized.descriptor makespan))
    neg_infinity scorers

(* Genes on disk: one "genes" line. *)
let encode_genes g = "genes " ^ Gene_decoder.genes_to_string g

let decode_genes problem line =
  match String.split_on_char ' ' line with
  | "genes" :: words -> (
    match Gene_decoder.genes_of_words problem.tasks words with
    | Some genes -> Ok genes
    | None -> Error "bad genes line")
  | _ -> Error "bad genes line"

(* The annealing run's working state: the shared genes under annealing
   and the Metropolis chain around them. *)
type chain_state = { genes : assignment; chain : Annealer.chain }

let explore ?(seed = 1) ?(iterations = 20_000) ?time_limit ?should_stop
    ?observe ?checkpoint problem platform =
  let config = Annealer.for_budget ~seed iterations in
  let controls =
    Engine.controls ?time_limit ?should_stop ?observe ?checkpoint ~seed
      ~iterations ()
  in
  (* Mutable, so allocated per call and never stored in the [problem],
     which several domains may share. *)
  let scorers =
    List.map (fun r -> (r, Gene_decoder.tables r.app platform)) problem.modes
  in
  let cost = assignment_cost scorers in
  let propose rng genes =
    let v = Rng.int rng (Array.length genes.hw) in
    if Rng.bernoulli rng 0.3 then begin
      let count = Task.impl_count problem.tasks.(v) in
      if count < 2 then None
      else begin
        let old = genes.impl.(v) in
        let pick = Rng.int rng (count - 1) in
        genes.impl.(v) <- (if pick >= old then pick + 1 else pick);
        Some (fun () -> genes.impl.(v) <- old)
      end
    end
    else begin
      genes.hw.(v) <- not genes.hw.(v);
      Some (fun () -> genes.hw.(v) <- not genes.hw.(v))
    end
  in
  (* The state on disk, version 1: the chain, then the genes line. *)
  let decode text =
    match Annealer.decode_chain config (String.split_on_char '\n' text) with
    | Ok (chain, [ line ]) ->
      Result.map (fun genes -> { genes; chain }) (decode_genes problem line)
    | Ok _ -> Error "expected one genes line"
    | Error _ as e -> e
  in
  let encode s = Annealer.encode_chain s.chain ^ "\n" ^ encode_genes s.genes in
  let codec = { Engine.engine = "multi-mode"; version = 1; encode; decode } in
  (* A checkpoint binds the platform and every mode: its application
     and where its tasks sit in the shared genes. *)
  let inputs () =
    let members r =
      String.concat " "
        ("members" :: Array.to_list (Array.map string_of_int r.to_global))
    in
    Repro_arch.Platform_io.to_string platform
    :: Printf.sprintf "tasks %d" (Array.length problem.tasks)
    :: List.concat_map (fun r -> [ App_io.to_string r.app; members r ])
         problem.modes
  in
  let filing =
    { Engine.inputs; decode_best = decode_genes problem;
      encode_best = (fun genes -> encode_genes genes ^ "\n") }
  in
  let init _driver_rng =
    let n = Array.length problem.tasks in
    let genes = { hw = Array.make n false; impl = Array.make n 0 } in
    let cost = cost genes in
    ({ genes; chain = Annealer.start config ~cost }, cost, 0)
  in
  let step rng ~iteration s =
    let move =
      Annealer.step config s.chain rng s.genes ~iteration ~cost ~propose
    in
    {
      Engine.state = s;
      cost = s.chain.Annealer.current_cost;
      accepted = move = Annealer.Accepted;
      evaluations = (if move = Annealer.Infeasible then 0 else 1);
    }
  in
  let snapshot s =
    { hw = Array.copy s.genes.hw; impl = Array.copy s.genes.impl }
  in
  let outcome =
    Engine.run_driven ~codec ~filing controls ~init ~step ~snapshot
  in
  let assignment = outcome.Engine.best in
  let per_mode =
    List.map
      (fun (mode, spec) ->
        match Searchgraph.evaluate spec with
        | Some eval ->
          {
            mode;
            spec;
            eval;
            meets = eval.Searchgraph.makespan <= mode.deadline;
          }
        | None ->
          (* The all-software assignment is always feasible, so the
             annealer's best — never worse than the initial state —
             decodes feasibly in every mode. *)
          assert false)
      (realize problem platform assignment)
  in
  let worst_slack_ratio =
    List.fold_left
      (fun worst r ->
        Float.min worst (slack_ratio r.mode r.eval.Searchgraph.makespan))
      infinity per_mode
  in
  {
    assignment;
    per_mode;
    worst_slack_ratio;
    iterations_run = outcome.Engine.iterations_run;
    wall_seconds = outcome.Engine.wall_seconds;
    status = outcome.Engine.status;
  }
