module Bitset = Repro_util.Bitset

type t = {
  size : int;
  reach : Bitset.t array;    (* reach.(u) = the nodes u reaches, u excluded *)
}

let of_graph g = { size = Graph.size g; reach = Graph.transitive_closure g }

let reaches t u v =
  if u < 0 || u >= t.size || v < 0 || v >= t.size then
    invalid_arg "Closure.reaches: node out of range";
  Bitset.mem t.reach.(u) v
