(* The GA's breeding operators written one draw per gene: the
   reference that the tests hold [Ga.crossover] and [Ga.mutate], which
   draw in bulk, to, child for child and draw for draw. *)

open Repro_taskgraph
module Rng = Repro_util.Rng

type individual = Repro_sched.Gene_decoder.genes = {
  hw : bool array;
  impl : int array;
}

(* Uniform crossover.  The implementation genes draw first: the
   record literal that built the child evaluated its [impl] field
   before its [hw] field. *)
let crossover rng a b =
  let n = Array.length a.hw in
  let pick x y = if Rng.bool rng then x else y in
  let impl = Array.init n (fun v -> pick a.impl.(v) b.impl.(v)) in
  let hw = Array.init n (fun v -> pick a.hw.(v) b.hw.(v)) in
  { hw; impl }

let mutate rng ~explore_impls app rate individual =
  let n = Array.length individual.hw in
  for v = 0 to n - 1 do
    if Rng.bernoulli rng rate then individual.hw.(v) <- not individual.hw.(v);
    if explore_impls && Rng.bernoulli rng rate then
      individual.impl.(v) <- Rng.int rng (Task.impl_count (App.task app v))
  done
