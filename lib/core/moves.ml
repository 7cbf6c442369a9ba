open Repro_taskgraph
open Repro_arch
module Rng = Repro_util.Rng

type config = {
  p_impl : float;
  p_new_context : float;
  p_swap_contexts : float;
  p_to_sw : float;
  p_device : float;
  device_catalogue : Platform.t list;
}

let fixed_architecture =
  {
    p_impl = 0.2;
    p_new_context = 0.05;
    p_swap_contexts = 0.05;
    p_to_sw = 0.1;
    p_device = 0.0;
    device_catalogue = [];
  }

let exploration catalogue =
  {
    p_impl = 0.15;
    p_new_context = 0.05;
    p_swap_contexts = 0.05;
    p_to_sw = 0.1;
    p_device = 0.1;
    device_catalogue = catalogue;
  }

let spatial_only =
  {
    p_impl = 0.0;
    p_new_context = 0.0;
    p_swap_contexts = 0.0;
    p_to_sw = 0.1;
    p_device = 0.0;
    device_catalogue = [];
  }

(* Realize a move and validate it: keep it when the search graph is
   acyclic and capacities hold, otherwise undo and report
   infeasibility.  Only the makespan is read, so judging a move builds
   no evaluation record. *)
let realized solution mutate =
  let undo = Solution.save solution in
  mutate ();
  if Solution.makespan solution < infinity then Some undo
  else begin
    undo ();
    None
  end

(* Static cycle tests (§4.3: a cycle is "detectable in O(1) operations
   on the associated transitive closure matrix").  Each one finds two
   tasks that the realized move would sequence against an application
   path, which closes a cycle whatever the rest of the search graph
   holds; a move they reject is never saved, made or undone.  Cycles
   running through both the software chain and the context chain are
   left to validation, where Pearce-Kelly catches them. *)

(* m1 places [vs] right before [vd]: [vs] jumps ahead of the tasks in
   [vd, vs) when [vd] comes first, behind those in (vs, vd) otherwise.
   Which comes first is found by walking the chain forward from both
   at once, so the walks stay within twice the distance between the
   two tasks. *)
let reorder_cyclic solution vs vd =
  let clo = App.closure (Solution.app solution) in
  if Solution.processor_index solution vs
     <> Solution.processor_index solution vd
  then invalid_arg "Moves.reorder_cyclic: tasks not on one processor";
  Closure.reaches clo vd vs
  ||
  let next = Solution.sw_next solution in
  (* [a] walks from [vs], [b] from [vd]: whichever meets the other task
     or the end of the order first settles it. *)
  let rec vd_first a b =
    if b = vs || a < 0 then true
    else if a = vd || b < 0 then false
    else vd_first (next a) (next b)
  in
  let rec jumped_ahead_of y =
    y <> vs && (Closure.reaches clo y vs || jumped_ahead_of (next y))
  in
  let rec jumped_behind y =
    y <> vd && (Closure.reaches clo vs y || jumped_behind (next y))
  in
  if vd_first (next vs) (next vd) then jumped_ahead_of (next vd)
  else jumped_behind (next vs)

type placement = Join of int | Fresh_at of int

(* Whether [v] reaches a task of a list other than itself, or is
   reached from one. *)
let rec reaches_into clo v = function
  | [] -> false
  | x :: rest -> (x <> v && Closure.reaches clo v x) || reaches_into clo v rest

let rec reached_from clo v = function
  | [] -> false
  | x :: rest -> (x <> v && Closure.reaches clo x v) || reached_from clo v rest

(* Every member of an earlier context precedes every member of a later
   one, so the moved task [v] must not reach into an earlier context,
   nor be reached from a later one.  Positions count the contexts left
   once [v] is detached, as the mutators do: a context holding [v]
   alone is skipped.  The walks read the solution's own context list
   and allocate nothing; [position] finds the context of id [id]. *)
let rec position v id j = function
  | [] -> invalid_arg "Moves.placement_cyclic: destination in software"
  | (_, [ x ]) :: rest when x = v -> position v id j rest
  | (cid, _) :: rest -> if cid = id then j else position v id (j + 1) rest

(* Contexts before position [lo] run before [v]'s, those from [hi] on
   after it. *)
let rec scan clo v lo hi j = function
  | [] -> false
  | (_, [ x ]) :: rest when x = v -> scan clo v lo hi j rest
  | (_, members) :: rest ->
    (j < lo && reaches_into clo v members)
    || (j >= hi && reached_from clo v members)
    || scan clo v lo hi (j + 1) rest

let fresh_cyclic solution v at =
  scan (App.closure (Solution.app solution)) v at at 0
    (Solution.context_chain solution)

let join_cyclic solution v vd =
  let clo = App.closure (Solution.app solution) in
  let chain = Solution.context_chain solution in
  let d = position v (Solution.context_id solution vd) 0 chain in
  (* A full destination spawns [v]'s context right after it. *)
  if Solution.joins_context solution ~task:v ~dest:vd then
    scan clo v d (d + 1) 0 chain
  else scan clo v (d + 1) (d + 1) 0 chain

let placement_cyclic solution v = function
  | Fresh_at at -> fresh_cyclic solution v at
  | Join vd -> join_cyclic solution v vd

let rec reaches_any clo x = function
  | [] -> false
  | y :: rest -> Closure.reaches clo x y || reaches_any clo x rest

let rec any_reaches clo second = function
  | [] -> false
  | x :: rest -> reaches_any clo x second || any_reaches clo second rest

(* Swapping contexts [at] and [at+1] runs every member of the second
   before every member of the first. *)
let rec swap_closes clo at = function
  | (_, first) :: ((_, second) :: _ as rest) ->
    if at = 0 then any_reaches clo second first
    else swap_closes clo (at - 1) rest
  | [ _ ] | [] -> invalid_arg "Moves.swap_cyclic: bad position"

let swap_cyclic solution at =
  if at < 0 then invalid_arg "Moves.swap_cyclic: bad position";
  swap_closes (App.closure (Solution.app solution)) at
    (Solution.context_chain solution)

let draw_hw_task rng solution =
  match Solution.hw_count solution with
  | 0 -> None
  | count -> Some (Solution.nth_hw_task solution (Rng.int rng count))

let impl_move rng solution =
  match draw_hw_task rng solution with
  | None -> None
  | Some v ->
    let task = App.task (Solution.app solution) v in
    let count = Task.impl_count task in
    if count < 2 then None
    else begin
      let current = Solution.impl_index solution v in
      let pick = Rng.int rng (count - 1) in
      let next = if pick >= current then pick + 1 else pick in
      realized solution (fun () -> Solution.set_impl solution v next)
    end

let new_context_move rng solution =
  let n = Solution.size solution in
  let v = Rng.int rng n in
  (* A task alone in its own context gains nothing from a fresh one. *)
  let alone_in_context =
    let id = Solution.context_id solution v in
    id >= 0
    && (match List.assq id (Solution.context_chain solution) with
        | [ _ ] -> true
        | _ -> false)
  in
  if alone_in_context then None
  else begin
    let at = Rng.int rng (Solution.n_contexts solution + 1) in
    if fresh_cyclic solution v at then None
    else
      realized solution (fun () -> Solution.insert_context solution ~task:v ~at)
  end

(* Explore the globally total context order directly: exchange two
   adjacent contexts. *)
let swap_contexts_move rng solution =
  let k = Solution.n_contexts solution in
  if k < 2 then None
  else begin
    let at = Rng.int rng (k - 1) in
    if swap_cyclic solution at then None
    else realized solution (fun () -> Solution.swap_contexts solution ~at)
  end

let device_move rng config solution =
  match config.device_catalogue with
  | [] -> None
  | catalogue ->
    let current = Solution.platform solution in
    (* Swappable platforms only: a different processor count would
       strand tasks, which replace_platform refuses. *)
    let others =
      List.filter
        (fun p ->
          p != current
          && Platform.processor_count p = Platform.processor_count current)
        catalogue
    in
    (match others with
     | [] -> None
     | _ :: _ ->
       let platform = Rng.choice_list rng others in
       realized solution (fun () ->
           Solution.replace_platform solution platform))

(* m1: reposition [vs] immediately before [vd] in the software order.
   Statically impossible orders ([vs] would run after an ancestor it
   jumps, or before a descendant) are rejected on the closure matrix
   before anything is saved; dynamic conflicts through hardware
   contexts are caught by validation. *)
let reorder_move solution vs vd =
  if reorder_cyclic solution vs vd then None
  else
    realized solution (fun () ->
        Solution.reorder_sw solution ~task:vs ~before:vd)

(* Statically consistent insertion point for a task entering a
   processor's order: right before the first software task of that
   processor that must follow it (closure query), at the end
   otherwise. *)
let sw_insertion_point solution ~proc vs =
  if proc < 0 || proc >= Platform.processor_count (Solution.platform solution)
  then invalid_arg "Moves: no such processor";
  let clo = App.closure (Solution.app solution) in
  let rec scan w =
    if w < 0 then None
    else if Closure.reaches clo vs w then Some w
    else scan (Solution.sw_next solution w)
  in
  scan (Solution.sw_first solution proc)

(* The length of processor [proc]'s order and its [k]-th task, walked
   along the chain. *)
let chain_length solution proc =
  let rec count w acc =
    if w < 0 then acc else count (Solution.sw_next solution w) (acc + 1)
  in
  count (Solution.sw_first solution proc) 0

let chain_nth solution proc k =
  let rec walk w k =
    if k = 0 then w else walk (Solution.sw_next solution w) (k - 1)
  in
  walk (Solution.sw_first solution proc) k

(* m2 with a software destination: migrate [vs] to the processor
   holding [vd]. *)
let to_software_move ~proc solution vs =
  let before = sw_insertion_point solution ~proc vs in
  realized solution (fun () ->
      Solution.move_to_sw ~proc solution ~task:vs ~before)

(* Escape move keeping the chain ergodic: when no task runs on some
   processor, no draw of [vd] can designate it, so migration to it
   would be impossible through m2 alone.  With a small probability we
   therefore move a random task to a random processor directly. *)
let hw_to_sw_move rng solution =
  let n = Solution.size solution in
  let processors =
    Repro_arch.Platform.processor_count (Solution.platform solution)
  in
  let proc = Rng.int rng processors in
  let v = Rng.int rng n in
  if Solution.context_id solution v < 0
     && Solution.processor_index solution v = proc
  then None
  else to_software_move ~proc solution v

let to_context_move solution vs vd =
  if join_cyclic solution vs vd then None
  else
    realized solution (fun () ->
        Solution.move_to_context solution ~task:vs ~dest:vd)

let main_move rng solution =
  let n = Solution.size solution in
  let vs = Rng.int rng n and vd = Rng.int rng n in
  if vs = vd then None
  else begin
    (* Solutions never bind tasks to an ASIC (exploration over ASIC
       assignment is future work, as in the paper): a task is in
       software or in a context. *)
    let cs = Solution.context_id solution vs in
    let cd = Solution.context_id solution vd in
    if cd >= 0 then
      (* Same RC context: the paper performs no move. *)
      if cs = cd then None else to_context_move solution vs vd
    else
      let q = Solution.processor_index solution vd in
      if cs < 0 && Solution.processor_index solution vs = q then
        reorder_move solution vs vd
      else to_software_move ~proc:q solution vs
  end

(* One generator per move kind, for the per-kind benchmark matrix:
   the same draws and validation as [propose], minus the lottery.
   [Sw_reorder] and [Ctx_migrate] re-draw the (vs, vd) pair of
   [main_move] conditioned on landing in the requested kind. *)
let propose_kind rng config solution (kind : Solution.move_kind) =
  match kind with
  | Solution.Init -> None
  | Solution.Impl -> impl_move rng solution
  | Solution.Ctx_create -> new_context_move rng solution
  | Solution.Ctx_swap -> swap_contexts_move rng solution
  | Solution.Platform_swap -> device_move rng config solution
  | Solution.Sw_migrate -> hw_to_sw_move rng solution
  | Solution.Sw_reorder ->
    let proc =
      Rng.int rng (Platform.processor_count (Solution.platform solution))
    in
    let length = chain_length solution proc in
    if length < 2 then None
    else
      let vs = chain_nth solution proc (Rng.int rng length) in
      let vd = chain_nth solution proc (Rng.int rng length) in
      if vs = vd then None else reorder_move solution vs vd
  | Solution.Ctx_migrate -> (
    match draw_hw_task rng solution with
    | None -> None
    | Some vd ->
      let vs = Rng.int rng (Solution.size solution) in
      if vs = vd then None
      else
        let cd = Solution.context_id solution vd in
        if cd < 0 || Solution.context_id solution vs = cd then None
        else to_context_move solution vs vd)

let propose rng config solution =
  let draw = Rng.float rng 1.0 in
  let threshold1 = config.p_device in
  let threshold2 = threshold1 +. config.p_impl in
  let threshold3 = threshold2 +. config.p_new_context in
  let threshold4 = threshold3 +. config.p_swap_contexts in
  let threshold5 = threshold4 +. config.p_to_sw in
  if draw < threshold1 then device_move rng config solution
  else if draw < threshold2 then impl_move rng solution
  else if draw < threshold3 then new_context_move rng solution
  else if draw < threshold4 then swap_contexts_move rng solution
  else if draw < threshold5 then hw_to_sw_move rng solution
  else main_move rng solution
