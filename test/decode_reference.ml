(* The GA decode written out step by step, one array per step: the
   independent reference that the tests hold [Gene_decoder]'s fused
   sweeps to, bit for bit. *)

open Repro_taskgraph
open Repro_arch
module Searchgraph = Repro_sched.Searchgraph

(* Clustering: walks the tasks in topological order and packs each one
   with [area.(v) >= 0] — the CLB area of the implementation selected
   for a task that asks for hardware; software tasks carry a negative
   area — into the current context until the device's [limit] CLBs
   would be exceeded, then opens a new context.  A task whose area
   alone exceeds [limit] stays in software.  Writes into [context.(v)]
   the 0-based position of [v]'s context, or -1 in software; returns
   the number of contexts. *)
let contexts app ~limit ~area ~context =
  let topo = App.topo app in
  let count = ref 0 and clbs = ref 0 in
  for i = 0 to Array.length topo - 1 do
    let v = topo.(i) in
    let a = area.(v) in
    if a >= 0 && a <= limit then begin
      if !count = 0 || !clbs + a > limit then begin
        incr count;
        clbs := 0
      end;
      context.(v) <- !count - 1;
      clbs := !clbs + a
    end
    else context.(v) <- -1
  done;
  !count

(* The members of each of [count] contexts, in topological order. *)
let members app ~context count =
  let topo = Array.to_list (App.topo app) in
  List.init count (fun j -> List.filter (fun v -> context.(v) = j) topo)

(* The HEFT upward rank: for each task, the longest remaining path to
   a sink counting node times [time.(v)] and edge communication costs
   [comm.(i)], where [i] is the edge's index in [App.edges]. *)
let upward_rank app ~time ~comm ~rank =
  let outs = App.out_edges app and topo = App.topo app in
  for i = Array.length topo - 1 downto 0 do
    let v = topo.(i) in
    let tail = ref 0.0 in
    for k = outs.start.(v) to outs.start.(v + 1) - 1 do
      tail := Float.max !tail (comm.(outs.edge.(k)) +. rank.(outs.node.(k)))
    done;
    rank.(v) <- time.(v) +. !tail
  done

type decoded = {
  context : int array;  (* per task: its context's position, or -1 *)
  members : int list list;  (* per context, in topological order *)
  rank : float array;
  sw_order : int list;  (* by descending rank, ties in topological order *)
}

(* Clustering of the hardware genes' areas, the upward ranks under
   each task's time on its resource and each crossing edge's transfer
   time, then the software tasks in topological order, sorted stably
   by descending rank. *)
let decode app platform (genes : Repro_sched.Gene_decoder.genes) =
  let n = App.size app in
  let selected v = Task.impl (App.task app v) genes.impl.(v) in
  let area =
    Array.init n (fun v -> if genes.hw.(v) then (selected v).clbs else -1)
  in
  let context = Array.make n (-1) in
  let count = contexts app ~limit:(Platform.n_clb platform) ~area ~context in
  let time =
    Array.init n (fun v ->
        if context.(v) >= 0 then (selected v).hw_time
        else (App.task app v).Task.sw_time)
  in
  let comm =
    Array.init (App.edge_count app) (fun e ->
        let { App.src; dst; kbytes } = App.edge app e in
        if context.(src) < 0 <> (context.(dst) < 0) then
          Platform.transfer_time platform kbytes
        else 0.0)
  in
  let rank = Array.make n 0.0 in
  upward_rank app ~time ~comm ~rank;
  let software =
    List.filter (fun v -> context.(v) < 0) (Array.to_list (App.topo app))
  in
  {
    context;
    members = members app ~context count;
    rank;
    sw_order =
      List.stable_sort (fun a b -> Float.compare rank.(b) rank.(a)) software;
  }

(* The decoded gene vector as a search-graph spec. *)
let spec app platform (genes : Repro_sched.Gene_decoder.genes) d =
  Searchgraph.single_processor_spec ~app ~platform
    ~binding:(fun v ->
      let j = d.context.(v) in
      if j < 0 then Searchgraph.Sw else Searchgraph.Hw j)
    ~impl_choice:(fun v -> genes.impl.(v))
    ~sw_order:d.sw_order ~contexts:d.members
