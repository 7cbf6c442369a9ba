open Repro_taskgraph
module Pqueue = Repro_util.Pqueue

let upward_rank app ~time ~comm =
  let g = app.App.graph in
  let n = App.size app in
  let rank = Array.make n 0.0 in
  let order = App.topological_order app in
  for i = n - 1 downto 0 do
    let v = order.(i) in
    let tail =
      List.fold_left
        (fun acc w -> Float.max acc (comm v w +. rank.(w)))
        0.0 (Graph.succs g v)
    in
    rank.(v) <- time v +. tail
  done;
  rank

let prioritized_topological_order app ~priority =
  let g = app.App.graph in
  let n = App.size app in
  let indegree = Array.init n (fun v -> Graph.in_degree g v) in
  let ready = Pqueue.create () in
  (* Min-heap: negate priority so the largest priority pops first; tie
     break on insertion order, which follows increasing task id. *)
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then Pqueue.push ready (-.priority v) v
  done;
  let rec drain acc =
    match Pqueue.pop ready with
    | None -> List.rev acc
    | Some (_, v) ->
      List.iter
        (fun w ->
          indegree.(w) <- indegree.(w) - 1;
          if indegree.(w) = 0 then Pqueue.push ready (-.priority w) w)
        (List.sort Int.compare (Graph.succs g v));
      drain (v :: acc)
  in
  let order = drain [] in
  assert (List.length order = n);
  order

let sw_order app ~is_sw ~priority =
  List.filter is_sw (prioritized_topological_order app ~priority)
