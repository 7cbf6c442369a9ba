open Repro_taskgraph
module Bitset = Repro_util.Bitset

type t = {
  size : int;
  reach : Bitset.t array;    (* reach.(u) = strict descendants of u *)
  preds : Bitset.t array;    (* preds.(v) = strict ancestors of v *)
}

let of_graph g =
  let reach = Graph.transitive_closure g in
  let n = Graph.size g in
  let preds = Array.init n (fun _ -> Bitset.create n) in
  Array.iteri
    (fun u row -> Bitset.iter (fun v -> Bitset.add preds.(v) u) row)
    reach;
  { size = n; reach; preds }

let reaches t u v =
  if u < 0 || u >= t.size || v < 0 || v >= t.size then
    invalid_arg "Closure.reaches: node out of range";
  Bitset.mem t.reach.(u) v

let would_close_cycle t u v = u = v || reaches t v u

let add_edge t u v =
  if would_close_cycle t u v then invalid_arg "Closure.add_edge: closes a cycle";
  (* Every ancestor of u (and u itself) now reaches every descendant of
     v (and v itself). *)
  let sources = Bitset.copy t.preds.(u) in
  Bitset.add sources u;
  let targets = Bitset.copy t.reach.(v) in
  Bitset.add targets v;
  Bitset.iter
    (fun s ->
      Bitset.iter
        (fun d ->
          if not (Bitset.mem t.reach.(s) d) then begin
            Bitset.add t.reach.(s) d;
            Bitset.add t.preds.(d) s
          end)
        targets)
    sources

let descendants t u =
  if u < 0 || u >= t.size then invalid_arg "Closure.descendants";
  t.reach.(u)
