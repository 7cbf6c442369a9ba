type impl = { clbs : int; hw_time : float }

type t = {
  id : int;
  name : string;
  functionality : string;
  sw_time : float;
  impls : impl array;
}

(* Times must be finite as well as positive: [t <= 0.0] is false for
   NaN, whose compares would leave the schedulers' orders undefined. *)
let validate_impl i =
  if i.clbs <= 0 then invalid_arg "Task: implementation with clbs <= 0";
  if i.hw_time <= 0.0 then
    invalid_arg "Task: implementation with hw_time <= 0";
  if not (Float.is_finite i.hw_time) then
    invalid_arg "Task: implementation with hw_time not finite"

let make ~id ~name ~functionality ~sw_time ~impls =
  if id < 0 then invalid_arg "Task.make: negative id";
  if sw_time <= 0.0 then invalid_arg "Task.make: sw_time <= 0";
  if not (Float.is_finite sw_time) then
    invalid_arg "Task.make: sw_time not finite";
  if impls = [] then invalid_arg "Task.make: no hardware implementation";
  List.iter validate_impl impls;
  let sorted =
    List.sort (fun a b -> compare (a.clbs, a.hw_time) (b.clbs, b.hw_time)) impls
  in
  { id; name; functionality; sw_time; impls = Array.of_list sorted }

let impl_count t = Array.length t.impls

let impl t k =
  if k < 0 || k >= Array.length t.impls then
    invalid_arg "Task.impl: index out of range";
  t.impls.(k)

let smallest_impl t = t.impls.(0)

let fastest_impl t =
  Array.fold_left
    (fun best i -> if i.hw_time < best.hw_time then i else best)
    t.impls.(0) t.impls

let dominates a b =
  a.clbs <= b.clbs && a.hw_time <= b.hw_time
  && (a.clbs < b.clbs || a.hw_time < b.hw_time)

let is_pareto impls =
  not
    (List.exists
       (fun b -> List.exists (fun a -> a != b && dominates a b) impls)
       impls)

let pareto_filter impls =
  let kept =
    List.filter
      (fun b -> not (List.exists (fun a -> a != b && dominates a b) impls))
      impls
  in
  List.sort_uniq (fun a b -> compare (a.clbs, a.hw_time) (b.clbs, b.hw_time)) kept

let best_speedup t = t.sw_time /. (fastest_impl t).hw_time

let pp fmt t =
  Format.fprintf fmt "@[<h>#%d %s (%s) tsw=%.3fms impls=[%a]@]" t.id t.name
    t.functionality t.sw_time
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
       (fun fmt i -> Format.fprintf fmt "%dclb/%.3fms" i.clbs i.hw_time))
    (Array.to_list t.impls)
