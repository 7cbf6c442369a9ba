(* The initial-solution procedure written with lists, a new ready
   array per drawn task and a reversed context list per packed task:
   the reference that the tests hold [Solution.random] to, draw for
   draw.  It builds the same decisions and hands them to
   [Solution.of_mapping]. *)

open Repro_taskgraph
open Repro_arch
module Rng = Repro_util.Rng
module Solution = Repro_dse.Solution

let random rng application platform =
  let n = App.size application in
  (* Kahn with a uniformly drawn ready task. *)
  let g = application.App.graph in
  let indegree = Array.init n (fun v -> Graph.in_degree g v) in
  let ready = ref (List.filter (fun v -> indegree.(v) = 0) (List.init n Fun.id)) in
  let order = ref [] in
  while !ready <> [] do
    let arr = Array.of_list !ready in
    let v = Rng.choice rng arr in
    ready := List.filter (fun w -> w <> v) !ready;
    order := v :: !order;
    List.iter
      (fun w ->
        indegree.(w) <- indegree.(w) - 1;
        if indegree.(w) = 0 then ready := w :: !ready)
      (Graph.succs g v)
  done;
  let topo = List.rev !order in
  (* A random number of tasks to the circuit, each with a random
     implementation that fits (the smallest otherwise). *)
  let target_hw = Rng.int rng (n + 1) in
  let shuffled = Array.init n Fun.id in
  Rng.shuffle_in_place rng shuffled;
  let chosen = Array.sub shuffled 0 target_hw in
  let limit = Platform.n_clb platform in
  let impl = Array.make n 0 in
  let in_hw = Array.make n false in
  let clbs v = (Task.impl (App.task application v) impl.(v)).Task.clbs in
  Array.iter
    (fun v ->
      let task = App.task application v in
      let k = Rng.int rng (Task.impl_count task) in
      impl.(v) <- (if (Task.impl task k).Task.clbs <= limit then k else 0);
      if clbs v <= limit then in_hw.(v) <- true)
    chosen;
  (* Pack in topological order into the last context, or a new one. *)
  let contexts = ref [] in
  List.iter
    (fun v ->
      if in_hw.(v) then
        match List.rev !contexts with
        | members :: _
          when List.fold_left (fun acc w -> acc + clbs w) 0 members + clbs v
               <= limit ->
          let last = List.length !contexts - 1 in
          contexts :=
            List.mapi (fun j ms -> if j = last then v :: ms else ms) !contexts
        | _ :: _ | [] -> contexts := !contexts @ [ [ v ] ])
    topo;
  let sw = List.filter (fun v -> not in_hw.(v)) topo in
  match
    Solution.of_mapping application platform
      ~sw_orders:(sw :: List.init (Platform.processor_count platform - 1) (fun _ -> []))
      ~contexts:!contexts ~impl:(Array.to_list impl)
  with
  | Ok s -> s
  | Error msg -> failwith msg
