open Repro_taskgraph
open Repro_arch
module Solution = Repro_dse.Solution
module Searchgraph = Repro_sched.Searchgraph
module Rng = Repro_util.Rng

let impl clbs hw_time = { Task.clbs; hw_time }

let app () =
  let t id sw_time impls =
    Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F" ~sw_time
      ~impls
  in
  App.make ~name:"pipe" ~deadline:50.0
    ~tasks:
      [
        t 0 2.0 [ impl 30 0.8 ];
        t 1 4.0 [ impl 40 1.0; impl 80 0.6 ];
        t 2 3.0 [ impl 40 0.9 ];
        t 3 5.0 [ impl 60 1.2; impl 90 0.8 ];
        t 4 1.0 [ impl 20 0.5 ];
      ]
    ~edges:
      [
        { App.src = 0; dst = 1; kbytes = 5.0 };
        { App.src = 0; dst = 2; kbytes = 5.0 };
        { App.src = 1; dst = 3; kbytes = 5.0 };
        { App.src = 2; dst = 3; kbytes = 5.0 };
        { App.src = 3; dst = 4; kbytes = 5.0 };
      ]
    ()

let platform ?(n_clb = 100) () =
  Platform.make ~name:"p"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb ~reconfig_ms_per_clb:0.01 "rc")
    ~bus:Platform.default_bus ()

let ok = function
  | Ok () -> true
  | Error msg -> Alcotest.failf "invariant violation: %s" msg

let test_all_software () =
  let s = Solution.all_software (app ()) (platform ()) in
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check int) "no contexts" 0 (Solution.n_contexts s);
  Alcotest.(check (list int)) "no hw" [] (Solution.hw_tasks s);
  Alcotest.(check (float 1e-9)) "makespan = total sw" 15.0 (Solution.makespan s)

let test_random_valid () =
  for seed = 1 to 30 do
    let rng = Rng.create seed in
    let s = Solution.random rng (app ()) (platform ()) in
    Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
    Alcotest.(check bool) "feasible" true (Solution.evaluate s <> None)
  done

(* The initial solution's first evaluation is booked under [Init],
   although [random] opens its contexts through [append_context]. *)
let test_random_books_init () =
  let s =
    Solution.random (Rng.create 5)
      (Repro_workloads.Motion_detection.app ())
      (Repro_workloads.Motion_detection.platform ~n_clb:800 ())
  in
  Alcotest.(check bool) "has a context" true (Solution.n_contexts s > 0);
  ignore (Solution.makespan s);
  let stats = Solution.eval_stats s in
  let full kind = (Solution.kind_stats stats kind).Solution.k_full_evals in
  Alcotest.(check int) "init full evals" 1 (full Solution.Init);
  Alcotest.(check int) "ctx_create full evals" 0 (full Solution.Ctx_create)

let test_random_respects_capacity () =
  (* A 35-CLB device can only host task 0 (30) and task 4 (20),
     one per context. *)
  for seed = 1 to 20 do
    let rng = Rng.create seed in
    let s = Solution.random rng (app ()) (platform ~n_clb:35 ()) in
    Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
    List.iter
      (fun members ->
        Alcotest.(check bool) "context fits" true
          (List.length members = 1
           && List.for_all (fun v -> v = 0 || v = 4) members))
      (Solution.contexts s)
  done

let test_move_to_context_and_back () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check (list int)) "hw tasks" [ 1 ] (Solution.hw_tasks s);
  Alcotest.(check bool) "binding is hw" true
    (Solution.binding s 1 = Searchgraph.Hw 0);
  Alcotest.(check int) "context area" 40 (Solution.context_clbs s 0);
  Solution.move_to_sw s ~task:1 ~before:(Some 3);
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check int) "context dropped" 0 (Solution.n_contexts s);
  Alcotest.(check bool) "back to software" true
    (Solution.binding s 1 = Searchgraph.Sw)

let test_capacity_spawns_context () =
  let s = Solution.all_software (app ()) (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:1 (* 40 CLBs *);
  Solution.move_to_context s ~task:2 ~dest:1 (* +40 fits *);
  Alcotest.(check int) "one context" 1 (Solution.n_contexts s);
  Solution.move_to_context s ~task:3 ~dest:1 (* +60 overflows: spawn *);
  Alcotest.(check int) "spawned" 2 (Solution.n_contexts s);
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  (* Task 3 sits alone in the new context, after the destination. *)
  Alcotest.(check (list (list int))) "membership" [ [ 2; 1 ]; [ 3 ] ]
    (Solution.contexts s)

let test_insert_context_positions () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  Solution.insert_context s ~task:0 ~at:0;
  Alcotest.(check (list (list int))) "0 inserted first" [ [ 0 ]; [ 1 ] ]
    (Solution.contexts s);
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check bool) "feasible order" true (Solution.evaluate s <> None)

let test_swap_contexts () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:0;
  Solution.append_context s ~task:1;
  Solution.swap_contexts s ~at:0;
  Alcotest.(check (list (list int))) "swapped" [ [ 1 ]; [ 0 ] ]
    (Solution.contexts s);
  Alcotest.(check bool) "invariants hold" true (ok (Solution.check_invariants s));
  (* 0 precedes 1, so context(1) before context(0) is infeasible. *)
  Alcotest.(check bool) "infeasible order detected" true
    (Solution.evaluate s = None)

let test_set_impl () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  Solution.set_impl s 1 1;
  Alcotest.(check int) "impl selected" 1 (Solution.impl_index s 1);
  Alcotest.(check int) "area follows impl" 80 (Solution.context_clbs s 0);
  Alcotest.check_raises "bad index"
    (Invalid_argument "Solution.set_impl: implementation index out of range")
    (fun () -> Solution.set_impl s 1 7)

let test_capacity_violation_infeasible () =
  let s = Solution.all_software (app ()) (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:1;
  Solution.move_to_context s ~task:2 ~dest:1;
  (* 40 + 40 fits; upgrading task 1 to 80 CLBs overflows. *)
  Solution.set_impl s 1 1;
  Alcotest.(check bool) "evaluate reports infeasible" true
    (Solution.evaluate s = None);
  Alcotest.(check bool) "makespan infinite" true
    (Solution.makespan s = infinity)

let test_save_restore () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  Solution.set_impl s 1 1;
  let before_makespan = Solution.makespan s in
  let restore = Solution.save s in
  Solution.move_to_context s ~task:3 ~dest:1;
  Solution.move_to_sw s ~task:1 ~before:None;
  Solution.set_impl s 0 0;
  restore ();
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check (list (list int))) "contexts restored" [ [ 1 ] ]
    (Solution.contexts s);
  Alcotest.(check int) "impl restored" 1 (Solution.impl_index s 1);
  Alcotest.(check (float 1e-9)) "makespan restored" before_makespan
    (Solution.makespan s)

let test_copy_independent () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  let copy = Solution.copy s in
  Solution.move_to_sw s ~task:1 ~before:None;
  Alcotest.(check (list int)) "copy keeps hw" [ 1 ] (Solution.hw_tasks copy);
  Alcotest.(check (list int)) "original changed" [] (Solution.hw_tasks s)

let test_evaluation_caching () =
  let s = Solution.all_software (app ()) (platform ()) in
  let e1 = Solution.evaluate s in
  let e2 = Solution.evaluate s in
  Alcotest.(check bool) "same cached value" true (e1 == e2);
  Solution.append_context s ~task:1;
  let e3 = Solution.evaluate s in
  Alcotest.(check bool) "invalidated on mutation" true (not (e2 == e3))

let with_check_deltas f =
  let was = Solution.check_deltas_enabled () in
  Solution.set_check_deltas true;
  Fun.protect ~finally:(fun () -> Solution.set_check_deltas was) f

(* Sixteen tasks in software, one chain in id order, with the given
   application edges. *)
let free16 ?(edges = []) () =
  let t id =
    Task.make ~id ~name:(Printf.sprintf "f%d" id) ~functionality:"F"
      ~sw_time:(1.0 +. float_of_int id) ~impls:[ impl 20 0.5 ]
  in
  App.make ~name:"free16" ~tasks:(List.init 16 t) ~edges ()

(* The makespan carries the bits of [Searchgraph.evaluate] of the spec,
   or is infinite where that finds a cycle. *)
let check_reference label s =
  let got = Solution.makespan s in
  match Searchgraph.evaluate (Solution.spec s) with
  | Some want ->
    Alcotest.(check int64) (label ^ ": makespan matches reference")
      (Int64.bits_of_float want.Searchgraph.makespan)
      (Int64.bits_of_float got)
  | None ->
    Alcotest.(check bool) (label ^ ": cyclic, infinite") true
      (got = infinity)

(* Full passes, partial passes and the nodes of the partial ones. *)
let booked s =
  let stats = Solution.eval_stats s in
  Solution.(stats.full_evals, stats.incr_evals, stats.incr_nodes)

let passes = Alcotest.(triple int int int)

(* Sixteen independent tasks: a reorder of the last two changes only
   their links, so the pass restarts at the position of the first of
   them and passes two nodes, booked as a partial pass of the
   reorder. *)
let test_partial_locality () =
  let s = Solution.all_software (free16 ()) (platform ()) in
  ignore (Solution.makespan s);
  let stats = Solution.eval_stats s in
  Alcotest.(check int) "first evaluation is full" 1 stats.Solution.full_evals;
  Solution.reorder_sw s ~task:15 ~before:14;
  check_reference "reorder" s;
  Alcotest.(check int) "no second full pass" 1 stats.Solution.full_evals;
  Alcotest.(check int) "one partial pass" 1 stats.Solution.incr_evals;
  Alcotest.(check int) "over the last two nodes" 2 stats.Solution.incr_nodes;
  Alcotest.(check int) "booked against the reorder" 2
    (Solution.kind_stats stats Solution.Sw_reorder).Solution.k_incr_nodes

(* A copy keeps the cache but no kernel: its first settle fills one and
   runs a full pass, while the original restarts its own. *)
let test_copy_runs_full () =
  let s = Solution.all_software (free16 ()) (platform ()) in
  ignore (Solution.makespan s);
  let c = Solution.copy s in
  check_reference "copy" c;
  Alcotest.check passes "the cache came along" (1, 0, 0) (booked s);
  Solution.reorder_sw c ~task:15 ~before:14;
  check_reference "copy's reorder" c;
  Alcotest.check passes "the copy's pass is full" (2, 0, 0) (booked s);
  Solution.reorder_sw s ~task:15 ~before:14;
  check_reference "original's reorder" s;
  Alcotest.check passes "the original's is partial" (2, 1, 2) (booked s)

(* [invalidate] drops the kernel: the next pass is full. *)
let test_invalidate_runs_full () =
  let s = Solution.all_software (free16 ()) (platform ()) in
  ignore (Solution.makespan s);
  Solution.reorder_sw s ~task:15 ~before:14;
  check_reference "reorder" s;
  Solution.invalidate s;
  check_reference "invalidated" s;
  Alcotest.check passes "one full pass more" (2, 1, 2) (booked s)

(* Another platform means other tables: a full pass, booked against
   the device swap; the next move restarts in the new kernel. *)
let test_platform_runs_full () =
  let s = Solution.all_software (app ()) (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:3;
  ignore (Solution.makespan s);
  Solution.replace_platform s (platform ~n_clb:200 ());
  check_reference "device swap" s;
  let stats = Solution.eval_stats s in
  Alcotest.(check int) "full pass for the swap" 1
    (Solution.kind_stats stats Solution.Platform_swap).Solution.k_full_evals;
  Alcotest.(check int) "two full passes" 2 stats.Solution.full_evals;
  Solution.set_impl s 3 1;
  check_reference "impl after the swap" s;
  Alcotest.(check int) "then a partial one" 1 stats.Solution.incr_evals

(* An undone move brings its cached makespan back: no pass.  The next
   move's refill follows the chain through the undo: the kernel held
   13 -> 15 -> 14, the solution now 11 -> 13 -> 12 -> 14 -> 15, so the
   pass restarts at task 12's slot and passes four nodes. *)
let test_undo_runs_no_pass () =
  let s = Solution.all_software (free16 ()) (platform ()) in
  let original = Solution.makespan s in
  let undo = Solution.save s in
  Solution.reorder_sw s ~task:15 ~before:14;
  check_reference "reorder" s;
  undo ();
  Alcotest.(check int64) "undo restores the makespan"
    (Int64.bits_of_float original)
    (Int64.bits_of_float (Solution.makespan s));
  Alcotest.check passes "no pass for the undo" (1, 1, 2) (booked s);
  Solution.reorder_sw s ~task:13 ~before:12;
  check_reference "reorder after the undo" s;
  Alcotest.check passes "restart at task 12" (1, 2, 6) (booked s)

(* A cyclic partial pass leaves its restart in place: with the edge
   14 -> 15, running 15 before 14 is a cycle found from slot 14, and
   the move that takes it back restarts there again. *)
let test_cyclic_partial_pass () =
  let application =
    free16 ~edges:[ { App.src = 14; dst = 15; kbytes = 1.0 } ] ()
  in
  let s = Solution.all_software application (platform ()) in
  ignore (Solution.makespan s);
  Solution.reorder_sw s ~task:15 ~before:14;
  check_reference "cycle" s;
  Alcotest.(check bool) "infeasible" true (Solution.makespan s = infinity);
  Alcotest.check passes "a partial pass finds it" (1, 1, 2) (booked s);
  Solution.reorder_sw s ~task:14 ~before:15;
  check_reference "taken back" s;
  Alcotest.check passes "restarted at the same slot" (1, 2, 4) (booked s)

(* A cycle through the first slot is found by a full pass, and the pass
   after a cyclic full pass is a full one. *)
let test_cyclic_full_pass () =
  let s = Solution.all_software (app ()) (platform ()) in
  ignore (Solution.makespan s);
  Solution.reorder_sw s ~task:1 ~before:0;
  check_reference "cycle" s;
  Alcotest.(check bool) "infeasible" true (Solution.makespan s = infinity);
  Solution.reorder_sw s ~task:0 ~before:1;
  check_reference "taken back" s;
  Alcotest.(check (float 1e-9)) "the chain's makespan" 15.0
    (Solution.makespan s);
  Alcotest.check passes "three full passes" (3, 0, 0) (booked s)

(* A refill whose contexts do not fit runs no pass, and what it changed
   carries over.  Sixteen tasks of two implementations, 20 and 90 CLBs,
   on a 100-CLB device.  One batch of writes runs task 1 before task 0,
   which changes the first slot's in-edges, and overflows the context
   of tasks 3 and 4 with task 3's larger implementation.  Moving task
   4 to software makes it fit and changes only later slots, so the
   pass must still start at slot 0: a full pass, whose finish times
   [REPRO_CHECK_DELTAS] compares with a fresh one. *)
let test_overflow_carries_marks () =
  with_check_deltas @@ fun () ->
  let t id =
    Task.make ~id ~name:(Printf.sprintf "f%d" id) ~functionality:"F"
      ~sw_time:(1.0 +. float_of_int id) ~impls:[ impl 20 0.5; impl 90 0.3 ]
  in
  let application =
    App.make ~name:"two16" ~tasks:(List.init 16 t) ~edges:[] ()
  in
  let s = Solution.all_software application (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:3;
  Solution.move_to_context s ~task:4 ~dest:3;
  check_reference "shared context" s;
  Solution.reorder_sw s ~task:1 ~before:0;
  Solution.set_impl s 3 1;
  Alcotest.(check bool) "overflows" true (Solution.makespan s = infinity);
  Alcotest.check passes "no pass" (1, 0, 0) (booked s);
  Solution.move_to_sw s ~task:4 ~before:(Some 12);
  check_reference "fits again" s;
  Alcotest.check passes "the pass starts at slot 0" (2, 0, 0) (booked s)

(* Swapping two contexts keeps their count: a partial pass, booked
   against the swap. *)
let test_swap_runs_partial () =
  let s = Solution.all_software (app ()) (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:1;
  Solution.append_context s ~task:2;
  check_reference "two contexts" s;
  Solution.swap_contexts s ~at:0;
  check_reference "swapped" s;
  let stats = Solution.eval_stats s in
  Alcotest.(check int) "one full pass" 1 stats.Solution.full_evals;
  Alcotest.(check int) "a partial pass for the swap" 1
    (Solution.kind_stats stats Solution.Ctx_swap).Solution.k_incr_evals

let test_incremental_undo () =
  let s = Solution.all_software (app ()) (platform ~n_clb:200 ()) in
  (* Task 3's implementations trade 0.4 ms of run time for 0.3 ms of
     reconfiguration, so toggling them really moves the makespan. *)
  Solution.append_context s ~task:3;
  let original = Solution.makespan s in
  let restore = Solution.save s in
  Solution.set_impl s 3 1;
  let changed = Solution.makespan s in
  Alcotest.(check bool) "impl move changes the makespan" true
    (changed <> original);
  restore ();
  Alcotest.(check (float 1e-9)) "undo restores the makespan"
    original (Solution.makespan s);
  (* A structural mutation after the undo is refilled along the
     version chain and stays correct (insert before task 4 to keep the
     software order precedence-consistent). *)
  Solution.move_to_sw s ~task:3 ~before:(Some 4);
  match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
  | Some got, Some want ->
    Alcotest.(check (float 1e-9)) "structural fallback matches reference"
      want.Searchgraph.makespan got.Searchgraph.makespan
  | None, None -> Alcotest.fail "structural move should stay feasible"
  | _ -> Alcotest.fail "feasibility mismatch after structural move"

let test_incremental_matches_reference_random () =
  (* Oracle test over random accepted/undone move sequences on the
     132-task layered graph: the cached evaluation, mostly from partial
     passes, must always equal a fresh Searchgraph.evaluate of the
     current spec. *)
  let rng = Rng.create 77 in
  let application, plat = Test_golden.layered128 () in
  let s = Solution.random rng application plat in
  for _ = 1 to 400 do
    (match Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s with
     | Some undo -> if Repro_util.Rng.bernoulli rng 0.3 then undo ()
     | None -> ());
    match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
    | None, None -> ()
    | Some got, Some want ->
      if abs_float (got.Searchgraph.makespan -. want.Searchgraph.makespan)
         >= 1e-9
      then
        Alcotest.failf "makespan diverged: %.12f vs %.12f"
          got.Searchgraph.makespan want.Searchgraph.makespan
    | _ -> Alcotest.fail "feasibility diverged from reference"
  done;
  let stats = Solution.eval_stats s in
  Alcotest.(check bool) "partial pass exercised" true
    (stats.Solution.incr_evals > 0)

let qcheck_incremental_exact =
  (* Random move sequences with interleaved undo: the evaluation from
     partial passes must stay bitwise equal to a from-scratch
     evaluation, and an encode/decode round trip mid-sequence must
     replay bit-identically. *)
  QCheck.Test.make ~name:"incremental evaluation bit-identical to scratch"
    ~count:60
    QCheck.(pair small_int (int_range 10 60))
    (fun (seed, steps) ->
      let application = app () in
      let plat = platform ~n_clb:200 () in
      let rng = Rng.create (seed + 3) in
      let s = Solution.random rng application plat in
      let ok = ref true in
      for _ = 1 to steps do
        (match
           Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s
         with
        | Some undo -> if Rng.bernoulli rng 0.4 then undo ()
        | None -> ());
        (match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
        | None, None -> ()
        | Some got, Some want ->
          if
            not
              (got.Searchgraph.makespan = want.Searchgraph.makespan
               && got.Searchgraph.initial_reconfig
                  = want.Searchgraph.initial_reconfig
               && got.Searchgraph.dynamic_reconfig
                  = want.Searchgraph.dynamic_reconfig
               && got.Searchgraph.comm = want.Searchgraph.comm)
          then ok := false
        | _ -> ok := false);
        if Rng.bernoulli rng 0.2 then begin
          match Solution.decode application plat (Solution.encode s) with
          | Error _ -> ok := false
          | Ok d ->
            if Solution.encode d <> Solution.encode s then ok := false;
            if Solution.makespan d <> Solution.makespan s then ok := false
        end
      done;
      !ok)

let qcheck_paranoid_deltas =
  (* The paranoid mode compares every refill with a full fill and every
     pass with a full pass, and faults on any mismatch, so simply
     driving random sequences (with undo and mid-sequence codec round
     trips) under the flag is the property. *)
  QCheck.Test.make ~name:"paranoid delta check over random move sequences"
    ~count:40
    QCheck.(pair small_int (int_range 20 80))
    (fun (seed, steps) ->
      let was = Solution.check_deltas_enabled () in
      Solution.set_check_deltas true;
      Fun.protect ~finally:(fun () -> Solution.set_check_deltas was)
        (fun () ->
          let application = app () in
          let plat = platform ~n_clb:200 () in
          let rng = Rng.create (seed + 11) in
          let s = Solution.random rng application plat in
          let ok = ref true in
          for _ = 1 to steps do
            (match
               Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s
             with
            | Some undo -> if Rng.bernoulli rng 0.35 then undo ()
            | None -> ());
            (match
               (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s))
             with
            | None, None -> ()
            | Some got, Some want ->
              if got.Searchgraph.makespan <> want.Searchgraph.makespan then
                ok := false
            | _ -> ok := false);
            if Rng.bernoulli rng 0.15 then begin
              match Solution.decode application plat (Solution.encode s) with
              | Error _ -> ok := false
              | Ok d -> if Solution.encode d <> Solution.encode s then ok := false
            end
          done;
          !ok))

let md28 () =
  ( Repro_workloads.Motion_detection.app (),
    Repro_workloads.Motion_detection.platform ~n_clb:800 () )

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_eval (a : Searchgraph.eval) (b : Searchgraph.eval) =
  same_bits a.Searchgraph.makespan b.Searchgraph.makespan
  && same_bits a.Searchgraph.initial_reconfig b.Searchgraph.initial_reconfig
  && same_bits a.Searchgraph.dynamic_reconfig b.Searchgraph.dynamic_reconfig
  && same_bits a.Searchgraph.comm b.Searchgraph.comm
  && a.Searchgraph.n_contexts = b.Searchgraph.n_contexts
  && Array.length a.Searchgraph.finish = Array.length b.Searchgraph.finish
  && Array.for_all2 same_bits a.Searchgraph.finish b.Searchgraph.finish

(* Moving a singleton context's task into a full destination frees the
   context's id and spawns a context right after the destination with
   that same id, at another position: the same number of contexts, so
   a partial pass, which must carry a full evaluation's bits. *)
let test_respawn_freed_id () =
  let was = Solution.check_deltas_enabled () in
  Solution.set_check_deltas true;
  Fun.protect ~finally:(fun () -> Solution.set_check_deltas was) @@ fun () ->
  let s = Solution.all_software (app ()) (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:0;
  Solution.append_context s ~task:2;
  Solution.append_context s ~task:1;
  Solution.set_impl s 1 1 (* 80 CLBs: task 2 (40) no longer fits *);
  Alcotest.(check bool) "warm" true (Solution.evaluate s <> None);
  let stats = Solution.eval_stats s in
  let full_before = stats.Solution.full_evals in
  let restore = Solution.save s in
  Solution.move_to_context s ~task:2 ~dest:1;
  Alcotest.(check (list (list int))) "re-spawned after the destination"
    [ [ 0 ]; [ 1 ]; [ 2 ] ] (Solution.contexts s);
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  let matches_rebuild what =
    match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
    | Some got, Some want ->
      Alcotest.(check bool) (what ^ ": bit-identical to a rebuild") true
        (same_eval got want)
    | _ -> Alcotest.failf "%s: expected a feasible evaluation" what
  in
  matches_rebuild "after the move";
  restore ();
  Alcotest.(check (list (list int))) "undone" [ [ 0 ]; [ 2 ]; [ 1 ] ]
    (Solution.contexts s);
  (* A further move refills the kernel along the rerooted chain. *)
  Solution.swap_contexts s ~at:1;
  matches_rebuild "after the undo and a swap";
  Alcotest.(check int) "no full pass" full_before stats.Solution.full_evals

(* Eight independent tasks of 20 CLBs: on a 100-CLB device every
   context order is acyclic and any three of the eight share a
   context. *)
let free_app () =
  let t id =
    Task.make ~id ~name:(Printf.sprintf "f%d" id) ~functionality:"F"
      ~sw_time:(1.0 +. float_of_int id)
      ~impls:[ impl 20 (0.5 +. float_of_int id) ]
  in
  App.make ~name:"free8" ~tasks:(List.init 8 t) ~edges:[] ()

(* A free8 solution whose contexts hold [layout]'s tasks in that order,
   built through the moves themselves. *)
let laid_out layout =
  let s = Solution.all_software (free_app ()) (platform ()) in
  ignore (Solution.makespan s);
  List.iter
    (function
      | [] -> ()
      | first :: rest ->
        Solution.append_context s ~task:first;
        List.iter
          (fun v -> Solution.move_to_context s ~task:v ~dest:first)
          rest)
    layout;
  s

let sorted_contexts s = List.map (List.sort compare) (Solution.contexts s)

(* One context-chain move on [layout] under the paranoid check (a pass
   that diverges from a full one raises): the contexts end as
   [expect], the evaluation carries a rebuild's bits, and after the
   undo the same move on the refilled kernel does too. *)
let pinned_ctx_move label layout ~expect move =
  with_check_deltas @@ fun () ->
  let s = laid_out layout in
  Alcotest.(check (list (list int))) (label ^ ": laid out")
    (List.map (List.sort compare) layout) (sorted_contexts s);
  let matches_rebuild what =
    match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
    | Some got, Some want ->
      Alcotest.(check bool) (label ^ what ^ ": a rebuild's bits") true
        (same_eval got want)
    | _ -> Alcotest.failf "%s%s: expected a feasible evaluation" label what
  in
  let code = Solution.encode s in
  let undo = Solution.save s in
  move s;
  Alcotest.(check (list (list int))) (label ^ ": contexts") expect
    (sorted_contexts s);
  Alcotest.(check bool) (label ^ ": invariants") true
    (ok (Solution.check_invariants s));
  matches_rebuild "";
  undo ();
  Alcotest.(check string) (label ^ ": undone") code (Solution.encode s);
  move s;
  matches_rebuild " (again, after the undo)"

let test_pinned_context_moves () =
  let to_sw task s = Solution.move_to_sw s ~task ~before:None in
  let join task dest s = Solution.move_to_context s ~task ~dest in
  let insert task at s = Solution.insert_context s ~task ~at in
  let swap at s = Solution.swap_contexts s ~at in
  (* The last member leaves: its context is freed and its neighbours
     become adjacent. *)
  pinned_ctx_move "freed to software" [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ]
    ~expect:[ [ 0; 1 ]; [ 3; 4 ] ] (to_sw 2);
  pinned_ctx_move "freed into a later context" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    ~expect:[ [ 0 ]; [ 2 ]; [ 1; 3 ] ] (join 1 3);
  pinned_ctx_move "freed first context" [ [ 0 ]; [ 1; 2 ]; [ 3 ] ]
    ~expect:[ [ 1; 2 ]; [ 3 ] ] (to_sw 0);
  (* The task moves into the context that becomes the next one's new
     predecessor: the pair (task, next) is in both GTLP sets and must
     cancel. *)
  pinned_ctx_move "cancelling pair" [ [ 0; 4 ]; [ 1 ]; [ 2; 5 ] ]
    ~expect:[ [ 0; 1; 4 ]; [ 2; 5 ] ] (join 1 0);
  pinned_ctx_move "cancelling pair, last context"
    [ [ 3 ]; [ 0 ]; [ 1 ]; [ 2 ] ]
    ~expect:[ [ 3 ]; [ 0; 1 ]; [ 2 ] ] (join 1 0);
  (* A member leaves a context that stays: its successor loses one GTLP
     pair, the destination's successor gains one. *)
  pinned_ctx_move "member diff" [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ]; [ 5 ] ]
    ~expect:[ [ 0 ]; [ 2 ]; [ 1; 3; 4 ]; [ 5 ] ] (join 1 3);
  pinned_ctx_move "insert at 0" [ [ 0 ]; [ 1; 2 ] ]
    ~expect:[ [ 3 ]; [ 0 ]; [ 1; 2 ] ] (insert 3 0);
  pinned_ctx_move "insert at k" [ [ 0 ]; [ 1; 2 ] ]
    ~expect:[ [ 0 ]; [ 1; 2 ]; [ 3 ] ] (insert 3 2);
  pinned_ctx_move "insert at 0 out of a context" [ [ 0 ]; [ 1; 2 ] ]
    ~expect:[ [ 2 ]; [ 0 ]; [ 1 ] ] (insert 2 0);
  (* The source context empties and its id is re-used by the fresh one,
     at the clamped last position: the same context in the same place. *)
  pinned_ctx_move "insert at k out of a freed context" [ [ 0 ]; [ 1 ] ]
    ~expect:[ [ 0 ]; [ 1 ] ] (insert 1 2);
  pinned_ctx_move "insert at k, freed in the middle" [ [ 0 ]; [ 1 ]; [ 2 ] ]
    ~expect:[ [ 0 ]; [ 2 ]; [ 1 ] ] (insert 1 3);
  pinned_ctx_move "swap the first pair" [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ]; [ 5 ] ]
    ~expect:[ [ 2 ]; [ 0; 1 ]; [ 3; 4 ]; [ 5 ] ] (swap 0);
  pinned_ctx_move "swap the last pair" [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ]; [ 5 ] ]
    ~expect:[ [ 0; 1 ]; [ 2 ]; [ 5 ]; [ 3; 4 ] ] (swap 2)

(* Random context-heavy move sequences on md28 at 100-400 CLBs, where
   the tasks spread over many contexts, under the paranoid check (a
   pass that diverges from a full one raises): the context kinds drawn
   directly, the mixed lottery otherwise, a third of the moves undone,
   and every evaluation a rebuild's bits. *)
let qcheck_md28_context_deltas =
  QCheck.Test.make ~name:"md28 context moves match a full evaluation"
    ~count:40
    QCheck.(pair small_int (int_range 100 400))
    (fun (seed, n_clb) ->
      with_check_deltas @@ fun () ->
      let application = Repro_workloads.Motion_detection.app () in
      let plat = Repro_workloads.Motion_detection.platform ~n_clb () in
      let rng = Rng.create (seed + 29) in
      let s = Solution.random rng application plat in
      let kinds =
        [| Solution.Ctx_migrate; Solution.Ctx_create; Solution.Ctx_swap;
           Solution.Sw_migrate |]
      in
      let ok = ref true in
      for _ = 1 to 200 do
        let proposed =
          if Rng.bernoulli rng 0.6 then
            Repro_dse.Moves.propose_kind rng Repro_dse.Moves.fixed_architecture
              s (Rng.choice rng kinds)
          else Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s
        in
        (match proposed with
         | Some undo -> if Rng.bernoulli rng 0.3 then undo ()
         | None -> ());
        match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
        | None, None -> ()
        | Some got, Some want -> if not (same_eval got want) then ok := false
        | Some _, None | None, Some _ -> ok := false
      done;
      !ok)

(* A mutation applied directly, so the next read finds the state
   unsettled; a reorder without the closure check may close a cycle. *)
let direct_mutation rng s =
  let n = Solution.size s in
  match Rng.int rng 3 with
  | 0 when Solution.n_contexts s >= 2 ->
    Solution.swap_contexts s ~at:(Rng.int rng (Solution.n_contexts s - 1))
  | 1 -> (
    match Solution.sw_order s with
    | _ :: _ :: _ as order ->
      let pick () = List.nth order (Rng.int rng (List.length order)) in
      let task = pick () and before = pick () in
      Solution.reorder_sw s ~task ~before
    | _ -> ())
  | _ ->
    let v = Rng.int rng n in
    let count = Task.impl_count (App.task (Solution.app s) v) in
    Solution.set_impl s v (Rng.int rng count)

(* The makespan read off the pass must carry the same bits as the
   evaluation record and as a from-scratch evaluation, be infinite
   exactly on infeasible states, and reading it first must not change
   the record [evaluate] returns.  Two solutions run the same moves in
   lockstep: [b] reads the record before the makespan; [a] reads the
   makespan and, on a coin, the record after it — so an undo often
   restores a state whose record was never built — and a copy of [a]
   (which carries no kernel) builds its own.  Besides moves, direct
   mutations and their undo, the sequence mutates on top of infeasible
   states and undoes nested saves out of order: the paths that force
   a full pass or carry a refill's changes over. *)
let test_makespan_path () =
  List.iter
    (fun (label, (application, plat), steps) ->
      let ra = Rng.create 41 and rb = Rng.create 41 and coin = Rng.create 42 in
      let a = Solution.random (Rng.create 5) application plat in
      let b = Solution.random (Rng.create 5) application plat in
      let check what =
        let eb = Solution.evaluate b in
        let mb = Solution.makespan b in
        let m = Solution.makespan a in
        let copied = Solution.evaluate (Solution.copy a) in
        let ea =
          if Rng.bernoulli coin 0.5 then Solution.evaluate a else eb
        in
        (* The reference: a from-scratch evaluation, which knows nothing
           of device capacity, behind the capacity invariant. *)
        let reference =
          match Solution.check_invariants a with
          | Ok () -> Searchgraph.evaluate (Solution.spec a)
          | Error _ -> None
        in
        let ok =
          match (eb, ea, copied, reference) with
          | Some y, Some x, Some z, Some r ->
            m < infinity && same_bits m y.Searchgraph.makespan
            && same_bits mb m && same_eval x y && same_eval y z
            && same_eval y r
          | None, None, None, None -> m = infinity && mb = infinity
          | _ -> false
        in
        if not ok then Alcotest.failf "%s: %s diverged" label what
      in
      let infeasible = ref 0 in
      for _ = 1 to steps do
        (match
           ( Repro_dse.Moves.propose ra Repro_dse.Moves.fixed_architecture a,
             Repro_dse.Moves.propose rb Repro_dse.Moves.fixed_architecture b )
         with
         | Some undo_a, Some undo_b ->
           if Rng.bernoulli coin 0.3 then begin
             undo_a ();
             undo_b ()
           end
         | None, None -> ()
         | _ -> Alcotest.failf "%s: lockstep proposals diverged" label);
        check "after a move";
        if Rng.bernoulli coin 0.5 then begin
          let undo_a = Solution.save a and undo_b = Solution.save b in
          direct_mutation ra a;
          direct_mutation rb b;
          check "after a direct mutation";
          let failed = Solution.makespan a = infinity in
          if failed then begin
            incr infeasible;
            (* A mutation on top of a cyclic one: the next pass is a
               full one. *)
            if Rng.bernoulli coin 0.5 then begin
              direct_mutation ra a;
              direct_mutation rb b;
              check "after a mutation on an infeasible state"
            end
          end;
          if failed || Rng.bernoulli coin 0.5 then begin
            undo_a ();
            undo_b ();
            check "after an undo"
          end
          else if Rng.bernoulli coin 0.3 then begin
            (* Two nested saves undone out of LIFO order: the outer undo
               reroots the chain past the inner save point, and the
               inner one reroots it forward again.  The state is the
               inner save point's. *)
            let inner_a = Solution.save a and inner_b = Solution.save b in
            direct_mutation ra a;
            direct_mutation rb b;
            check "after a nested direct mutation";
            undo_a ();
            undo_b ();
            check "after the outer undo";
            inner_a ();
            inner_b ();
            check "after the inner undo, out of order";
            direct_mutation ra a;
            direct_mutation rb b;
            check "after a mutation past out-of-order undos"
          end
        end
      done;
      if !infeasible = 0 then
        Alcotest.failf "%s: no infeasible state was visited" label)
    [ ("md28", md28 (), 300); ("g128", Test_golden.layered128 (), 150) ]

let test_replace_platform () =
  let s = Solution.all_software (app ()) (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:3;
  Solution.set_impl s 3 1 (* 90 CLBs *);
  Alcotest.(check bool) "fits 100" true (Solution.evaluate s <> None);
  Solution.replace_platform s (platform ~n_clb:50 ());
  Alcotest.(check bool) "overflows 50" true (Solution.evaluate s = None);
  Solution.replace_platform s (platform ~n_clb:200 ());
  Alcotest.(check bool) "fits 200" true (Solution.evaluate s <> None)

(* [save] records the version of the assignment arrays, not a copy: an
   undo spanning 100k accepted moves (and as many writes to the
   arrays) reroots the whole chain back, without deep recursion, to
   the exact saved state. *)
let test_long_undo () =
  let application, plat = md28 () in
  let n = App.size application in
  let s = Solution.random (Rng.create 11) application plat in
  let want_eval = Solution.evaluate s in
  let want_code = Solution.encode s in
  let want_impl = List.init n (Solution.impl_index s) in
  let want_binding = List.init n (Solution.binding s) in
  let undo = Solution.save s in
  let rng = Rng.create 12 in
  let accepted = ref 0 in
  while !accepted < 100_000 do
    match Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s with
    | Some _ -> incr accepted
    | None -> ()
  done;
  Alcotest.(check bool) "the moves changed the state" true
    (Solution.encode s <> want_code);
  undo ();
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check string) "encoding restored" want_code (Solution.encode s);
  Alcotest.(check (list int)) "implementations restored" want_impl
    (List.init n (Solution.impl_index s));
  Alcotest.(check bool) "bindings restored" true
    (want_binding = List.init n (Solution.binding s));
  match (want_eval, Solution.evaluate s, Searchgraph.evaluate (Solution.spec s))
  with
  | Some want, Some got, Some reference ->
    Alcotest.(check bool) "evaluation restored, bit for bit" true
      (same_eval want got && same_eval got reference)
  | _ -> Alcotest.fail "expected a feasible evaluation"

(* The benchmark's ~1000-task layered graph, 600-CLB contexts. *)
let layered1k () =
  let rec find seed =
    let app =
      Generators.layered ~name:"layered1k" (Rng.create seed)
        Generators.default_impl_model ~layers:8 ~width:250
        ~edge_probability:0.015 ~mean_sw_time:2.0 ~mean_kbytes:8.0
    in
    if App.size app >= 1000 then app else find (seed + 1)
  in
  let app = find 1 in
  (app, Platform.with_rc_size (Repro_workloads.Suite.platform_for app) 600)

(* Words allocated by [f] on both heaps (arrays this large would go
   straight to the major heap); the readings themselves account for a
   handful.  [Gc.counters]' minor count leaves out the words allocated
   since the last minor collection, [Gc.minor_words] does not. *)
let words_allocated f =
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = total () in
  let r = f () in
  (r, total () -. before)

(* On a ~1000-task solution, [save] costs a constant: it allocates no
   copy of the n-sized assignment arrays. *)
let test_save_allocation () =
  let application, plat = layered1k () in
  let s = Solution.random (Rng.create 3) application plat in
  ignore (Solution.makespan s);
  let want_code = Solution.encode s in
  let undo, words = words_allocated (fun () -> Solution.save s) in
  Alcotest.(check bool)
    (Printf.sprintf "save allocates <= 64 words (%.0f)" words)
    true (words <= 64.0);
  let rng = Rng.create 4 in
  for _ = 1 to 20 do
    ignore (Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s)
  done;
  undo ();
  Alcotest.(check string) "undone" want_code (Solution.encode s)

(* The software orders against a plain-list model: random mutators,
   saves and undos in any order, and copies, on random layered graphs
   run by one to three processors, half of the cases under the paranoid
   delta check.  After every step the chains read back as the model's
   lists, the invariants hold, and the settled makespan is the bits of
   a from-scratch evaluation (infinite exactly when that is cyclic or a
   context is over capacity). *)
let qcheck_chains_match_model =
  QCheck.Test.make ~name:"linked orders match a list model under save/undo"
    ~count:200
    QCheck.(triple small_int (int_range 1 3) (int_range 20 120))
    (fun (seed, procs, steps) ->
      let rng = Rng.create (seed + 101) in
      let application =
        Generators.layered rng Generators.default_impl_model
          ~layers:(3 + Rng.int rng 4) ~width:(4 + Rng.int rng 7)
          ~edge_probability:0.15 ~mean_sw_time:2.0 ~mean_kbytes:4.0
      in
      let plat =
        Platform.make ~name:"board"
          ~processor:(Resource.processor "cpu")
          ~rc:
            (Resource.reconfigurable ~n_clb:400 ~reconfig_ms_per_clb:0.01
               "rc")
          ~extra:
            (List.init (procs - 1) (fun i ->
                 Resource.processor ~speed:(1.0 +. float_of_int i)
                   (Printf.sprintf "dsp%d" i)))
          ~bus:Platform.default_bus ()
      in
      let n = App.size application in
      let was = Solution.check_deltas_enabled () in
      Solution.set_check_deltas (seed mod 2 = 0);
      Fun.protect ~finally:(fun () -> Solution.set_check_deltas was)
      @@ fun () ->
      let s = ref (Solution.random rng application plat) in
      let model = ref (Array.of_list (Solution.sw_orders !s)) in
      let saves = ref [] in
      let remove v = Array.map (List.filter (fun w -> w <> v)) in
      let insert v ~before order =
        match before with
        | None -> order @ [ v ]
        | Some b ->
          List.concat_map (fun w -> if w = b then [ v; w ] else [ w ]) order
      in
      let proc_of v =
        match Solution.binding !s v with
        | Searchgraph.Sw -> Some (Solution.processor_index !s v)
        | Searchgraph.Hw _ | Searchgraph.On_asic _ -> None
      in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let ok = ref true in
      let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
      for step = 1 to steps do
        let v = Rng.int rng n in
        (* Most infeasible moves are taken back at once, as the
           annealer does, so the live graph is rarely dropped. *)
        let take_back = Solution.save !s and before = !model in
        (* Six mutators at three chances in thirty each, then saves,
           undos and a copy. *)
        let draw = Rng.int rng 30 in
        let op =
          if draw < 18 then draw / 3
          else if draw < 23 then 6
          else if draw < 29 then 8
          else 9
        in
        (match op with
         | 0 -> (
           let p = Rng.int rng procs in
           match !model.(p) with
           | _ :: _ :: _ as order ->
             let a = pick order and b = pick order in
             if a <> b then begin
               Solution.reorder_sw !s ~task:a ~before:b;
               let m = remove a !model in
               m.(p) <- insert a ~before:(Some b) m.(p);
               model := m
             end
           | [ _ ] | [] -> ())
         | 1 ->
           let p = Rng.int rng procs in
           if proc_of v <> Some p then begin
             let before =
               if !model.(p) = [] || Rng.bool rng then None
               else Some (pick !model.(p))
             in
             Solution.move_to_sw ~proc:p !s ~task:v ~before;
             let m = remove v !model in
             m.(p) <- insert v ~before m.(p);
             model := m
           end
         | 2 -> (
           match Solution.hw_count !s with
           | 0 -> ()
           | k ->
             let dest = Solution.nth_hw_task !s (Rng.int rng k) in
             if Solution.binding !s v <> Solution.binding !s dest then begin
               Solution.move_to_context !s ~task:v ~dest;
               model := remove v !model
             end)
         | 3 ->
           let alone =
             match Solution.binding !s v with
             | Searchgraph.Hw j ->
               List.length (List.nth (Solution.contexts !s) j) = 1
             | Searchgraph.Sw | Searchgraph.On_asic _ -> false
           in
           if not alone then begin
             Solution.insert_context !s ~task:v
               ~at:(Rng.int rng (Solution.n_contexts !s + 1));
             model := remove v !model
           end
         | 4 ->
           let k = Solution.n_contexts !s in
           if k >= 2 then Solution.swap_contexts !s ~at:(Rng.int rng (k - 1))
         | 5 ->
           Solution.set_impl !s v
             (Rng.int rng (Task.impl_count (App.task application v)))
         | 6 -> saves := (Solution.save !s, !model) :: !saves
         | 8 -> (
           match !saves with
           | [] -> ()
           | l ->
             (* Any saved state, not only the latest. *)
             let i = Rng.int rng (List.length l) in
             let undo, saved = List.nth l i in
             undo ();
             model := saved;
             saves := List.filteri (fun j _ -> j <> i) l)
         | _ ->
           s := Solution.copy !s;
           saves := []);
        if op <= 5 && Solution.makespan !s = infinity && Rng.int rng 5 > 0
        then begin
          take_back ();
          model := before
        end;
        if !ok then begin
          if Solution.sw_orders !s <> Array.to_list !model then
            ok := fail "step %d: the chains differ from the model" step
          else
            let over =
              List.exists
                (fun j -> Solution.context_clbs !s j > Platform.n_clb plat)
                (List.init (Solution.n_contexts !s) Fun.id)
            in
            (* An implementation swap may overfill a context: the one
               invariant a move may break, until it is undone. *)
            let capacity_only msg =
              List.for_all
                (fun part -> String.ends_with ~suffix:"exceeds capacity" part)
                (String.split_on_char ';' msg)
            in
            match Solution.check_invariants !s with
            | Error msg when not (over && capacity_only msg) ->
              ok := fail "step %d: %s" step msg
            | Error _ | Ok () ->
              let got = Solution.makespan !s in
              let want =
                match Searchgraph.evaluate (Solution.spec !s) with
                | Some e when not over -> e.Searchgraph.makespan
                | Some _ | None -> infinity
              in
              if Int64.bits_of_float got <> Int64.bits_of_float want then
                ok := fail "step %d: makespan %h, from scratch %h" step got want
        end
      done;
      !ok)

(* The flat path: after every move and every undo the makespan must
   carry the bits of a fresh [Searchgraph.evaluate] of the spec.  Device moves swap the platform
   for a smaller and a larger circuit, and back on undo, so the flat
   tables follow the platform both ways.  Each input runs once in the
   default mode and once under [REPRO_CHECK_DELTAS], whose flat settle
   asserts the same equality itself. *)
let fixture name load =
  match load (Filename.concat "fixtures" name) with
  | Ok x -> x
  | Error msg -> Alcotest.fail msg

let flat_inputs ?(sizes = [ 100; 400; 1000; 3000 ]) () =
  let md n_clb =
    ( Printf.sprintf "md28 at %d CLBs" n_clb,
      (Repro_workloads.Motion_detection.app (),
       Repro_workloads.Motion_detection.platform ~n_clb ()) )
  in
  let board = fixture "good_board.plat" Platform_io.load in
  List.map md sizes
  @ [
    ("good_tiny on good_board", (fixture "good_tiny.tg" App_io.load, board));
    ("good_diamond on good_board", (fixture "good_diamond.tg" App_io.load, board));
    ("md28 on the two-processor board", Test_golden.two_processor_board ());
  ]

let flat_matches_evaluate ~paranoid (label, (application, plat)) =
  let was = Solution.check_deltas_enabled () in
  Solution.set_check_deltas paranoid;
  Fun.protect ~finally:(fun () -> Solution.set_check_deltas was) @@ fun () ->
  let n_clb = Platform.n_clb plat in
  let config =
    Repro_dse.Moves.exploration
      [ plat; Platform.with_rc_size plat (max 1 (n_clb / 2));
        Platform.with_rc_size plat (2 * n_clb) ]
  in
  let rng = Rng.create 23 in
  let s = Solution.random (Rng.create 3) application plat in
  let check what =
    let got = Solution.makespan s in
    match Searchgraph.evaluate (Solution.spec s) with
    | Some e when same_bits got e.Searchgraph.makespan -> ()
    | Some e ->
      Alcotest.failf "%s: %s: makespan %h, evaluate %h" label what got
        e.Searchgraph.makespan
    | None -> Alcotest.failf "%s: %s: evaluate finds a cycle" label what
  in
  check "initial";
  let devices = ref 0 in
  for step = 1 to 400 do
    match Repro_dse.Moves.propose rng config s with
    | None -> ()
    | Some undo ->
      if not (Solution.platform s == plat) then incr devices;
      check (Printf.sprintf "move %d" step);
      if Rng.bernoulli rng 0.4 then begin
        undo ();
        check (Printf.sprintf "undo %d" step)
      end
  done;
  let stats = Solution.eval_stats s in
  Alcotest.(check bool) (label ^ ": device moves drawn") true (!devices > 0);
  Alcotest.(check int) (label ^ ": no edge edited") 0
    stats.Solution.edges_edited;
  Alcotest.(check bool) (label ^ ": full and partial passes booked") true
    (stats.Solution.full_evals > 0 && stats.Solution.incr_evals > 0)

let test_flat_matches_evaluate () =
  List.iter
    (fun input ->
      flat_matches_evaluate ~paranoid:false input;
      flat_matches_evaluate ~paranoid:true input)
    (flat_inputs ())

(* A flat evaluation books the kind of the mutation before it, which
   the traced benchmark's per-kind mix reads; a new context count
   makes it a full pass. *)
let test_flat_books_kinds () =
  let application, plat = md28 () in
  let s = Solution.all_software application plat in
  ignore (Solution.makespan s);
  Solution.append_context s ~task:3;
  ignore (Solution.makespan s);
  let stats = Solution.eval_stats s in
  let full kind = (Solution.kind_stats stats kind).Solution.k_full_evals in
  Alcotest.(check int) "init" 1 (full Solution.Init);
  Alcotest.(check int) "ctx_create" 1 (full Solution.Ctx_create);
  Alcotest.(check int) "full evals" 2 stats.Solution.full_evals;
  (* 28 tasks, then 28 tasks and one configuration node. *)
  Alcotest.(check int) "full nodes" (28 + 29) stats.Solution.full_nodes

(* The flat refill follows the version chain: a settle refills only the
   kernel entries of the tasks written since the last fill, and under
   [REPRO_CHECK_DELTAS] each refill is compared with a full fill.  The
   steps mix moves of every kind, saves, undos of any saved state (not
   only the latest), copies and device swaps to a half and a double
   device; after each, the makespan must carry the bits of
   [Searchgraph.evaluate]. *)
let refill_kinds =
  Solution.
    [| Impl; Sw_reorder; Sw_migrate; Ctx_migrate; Ctx_create; Ctx_swap;
       Platform_swap |]

let refill_run (label, (application, plat)) seed steps =
  let n_clb = Platform.n_clb plat in
  let config =
    Repro_dse.Moves.exploration
      [ plat; Platform.with_rc_size plat (max 1 (n_clb / 2));
        Platform.with_rc_size plat (2 * n_clb) ]
  in
  let rng = Rng.create seed in
  let s = ref (Solution.random (Rng.create (seed + 1)) application plat) in
  let saved = ref [] in
  let check step what =
    let got = Solution.makespan !s in
    match Searchgraph.evaluate (Solution.spec !s) with
    | Some e when same_bits got e.Searchgraph.makespan -> ()
    | Some e ->
      QCheck.Test.fail_reportf "%s, step %d (%s): makespan %h, evaluate %h"
        label step what got e.Searchgraph.makespan
    | None ->
      QCheck.Test.fail_reportf "%s, step %d (%s): evaluate finds a cycle"
        label step what
  in
  check 0 "initial";
  for step = 1 to steps do
    let draw = Rng.int rng 10 in
    if draw < 6 then begin
      let kind = refill_kinds.(Rng.int rng (Array.length refill_kinds)) in
      (match Repro_dse.Moves.propose_kind rng config !s kind with
       | Some undo -> saved := undo :: !saved
       | None -> ());
      check step (Solution.move_kind_label kind)
    end
    else if draw < 8 then saved := Solution.save !s :: !saved
    else if draw < 9 then begin
      match !saved with
      | [] -> ()
      | list ->
        let i = Rng.int rng (List.length list) in
        (List.nth list i) ();
        saved := List.filteri (fun j _ -> j <> i) list;
        check step "undo"
    end
    else begin
      (* The saved states belong to the solution left behind. *)
      s := Solution.copy !s;
      saved := [];
      check step "copy"
    end
  done;
  true

let qcheck_refill_follows_versions =
  QCheck.Test.make ~name:"flat refill along the version chain equals a full fill"
    ~count:12
    QCheck.(pair small_int (int_range 50 300))
    (fun (seed, steps) ->
      with_check_deltas @@ fun () ->
      List.for_all
        (fun input -> refill_run input seed steps)
        (flat_inputs ~sizes:[ 100; 500; 2000 ] ()))

(* The partial pass against the full one: under [REPRO_CHECK_DELTAS]
   every settle also runs a full pass over a fresh full fill and
   raises unless the partial one gives its finish times, makespan and
   cyclicity verdict, bit for bit.  The steps mix moves of every kind,
   saves, undos of any saved state, copies, device swaps to a half and
   a double device, and direct mutations that may close a cycle or
   overfill a context (most of those undone at once); after each, the
   makespan must also be [Searchgraph.evaluate]'s, infinite where that
   finds a cycle or a context is over capacity.  Partial passes must
   have run. *)
let layered300 () =
  let app =
    Generators.layered ~name:"layered300" (Rng.create 5)
      Generators.default_impl_model ~layers:6 ~width:50
      ~edge_probability:0.05 ~mean_sw_time:2.0 ~mean_kbytes:8.0
  in
  (app, Platform.with_rc_size (Repro_workloads.Suite.platform_for app) 600)

let partial_inputs () =
  let board = fixture "good_board.plat" Platform_io.load in
  [
    ("md28 at 100 CLBs", (Repro_workloads.Motion_detection.app (),
                          Repro_workloads.Motion_detection.platform ~n_clb:100 ()));
    ("md28 at 1000 CLBs", (Repro_workloads.Motion_detection.app (),
                           Repro_workloads.Motion_detection.platform ~n_clb:1000 ()));
    ("good_tiny on good_board", (fixture "good_tiny.tg" App_io.load, board));
    ("good_diamond on good_board", (fixture "good_diamond.tg" App_io.load, board));
    ("g128", Test_golden.layered128 ());
    ("layered300", layered300 ());
  ]

let partial_run (label, (application, plat)) seed steps =
  let n_clb = Platform.n_clb plat in
  let config =
    Repro_dse.Moves.exploration
      [ plat; Platform.with_rc_size plat (max 1 (n_clb / 2));
        Platform.with_rc_size plat (2 * n_clb) ]
  in
  let rng = Rng.create seed in
  let s = ref (Solution.random (Rng.create (seed + 1)) application plat) in
  let saved = ref [] in
  let check step what =
    let got = Solution.makespan !s in
    let want =
      match (Solution.check_invariants !s, Searchgraph.evaluate (Solution.spec !s)) with
      | Ok (), Some e -> e.Searchgraph.makespan
      | Error _, _ | _, None -> infinity
    in
    if not (same_bits got want) then
      QCheck.Test.fail_reportf "%s, step %d (%s): makespan %h, evaluate %h"
        label step what got want
  in
  check 0 "initial";
  for step = 1 to steps do
    let draw = Rng.int rng 12 in
    if draw < 6 then begin
      let kind = refill_kinds.(Rng.int rng (Array.length refill_kinds)) in
      (match Repro_dse.Moves.propose_kind rng config !s kind with
       | Some undo -> saved := undo :: !saved
       | None -> ());
      check step (Solution.move_kind_label kind)
    end
    else if draw < 8 then begin
      let undo = Solution.save !s in
      direct_mutation rng !s;
      check step "direct mutation";
      (* Most infeasible ones are taken back at once, as the annealer
         does. *)
      if Solution.makespan !s = infinity && Rng.int rng 4 > 0 then begin
        undo ();
        check step "undo of an infeasible mutation"
      end
      else saved := undo :: !saved
    end
    else if draw < 10 then begin
      match !saved with
      | [] -> ()
      | list ->
        let i = Rng.int rng (List.length list) in
        (List.nth list i) ();
        saved := List.filteri (fun j _ -> j <> i) list;
        check step "undo"
    end
    else if draw < 11 then saved := Solution.save !s :: !saved
    else begin
      s := Solution.copy !s;
      saved := [];
      check step "copy"
    end
  done;
  (Solution.eval_stats !s).Solution.incr_evals

let qcheck_partial_pass =
  QCheck.Test.make ~name:"partial pass gives the full pass's times and verdict"
    ~count:6
    QCheck.(pair small_int (int_range 100 300))
    (fun (seed, steps) ->
      (* The shrinker may step outside the range. *)
      let steps = max 100 steps in
      with_check_deltas @@ fun () ->
      List.fold_left
        (fun acc input -> acc + partial_run input seed steps)
        0 (partial_inputs ())
      > 0)

(* [Solution.random] against the list-based reference: the same
   solution, and the generator left in the same state. *)
let test_random_matches_reference () =
  let layered =
    let application, plat = Test_golden.layered128 () in
    ("g128", (application, plat))
  in
  List.iter
    (fun (label, (application, plat)) ->
      for seed = 1 to 25 do
        let fast = Rng.create seed and slow = Rng.create seed in
        let got = Solution.random fast application plat in
        let want = Random_reference.random slow application plat in
        Alcotest.(check string)
          (Printf.sprintf "%s, seed %d: same solution" label seed)
          (Solution.encode want) (Solution.encode got);
        Alcotest.(check int)
          (Printf.sprintf "%s, seed %d: same next draw" label seed)
          (Rng.int slow 1_000_000) (Rng.int fast 1_000_000)
      done)
    (layered :: flat_inputs ())

let suite =
  [
    Alcotest.test_case "all software" `Quick test_all_software;
    Alcotest.test_case "random valid" `Quick test_random_valid;
    Alcotest.test_case "random books its evaluation under init" `Quick
      test_random_books_init;
    Alcotest.test_case "random respects capacity" `Quick
      test_random_respects_capacity;
    Alcotest.test_case "move to context and back" `Quick
      test_move_to_context_and_back;
    Alcotest.test_case "capacity spawns context" `Quick
      test_capacity_spawns_context;
    Alcotest.test_case "insert context positions" `Quick
      test_insert_context_positions;
    Alcotest.test_case "swap contexts" `Quick test_swap_contexts;
    Alcotest.test_case "freed id re-spawned in one move" `Quick
      test_respawn_freed_id;
    Alcotest.test_case "pinned context-chain deltas" `Quick
      test_pinned_context_moves;
    QCheck_alcotest.to_alcotest qcheck_md28_context_deltas;
    Alcotest.test_case "set impl" `Quick test_set_impl;
    Alcotest.test_case "capacity violation infeasible" `Quick
      test_capacity_violation_infeasible;
    Alcotest.test_case "save/restore" `Quick test_save_restore;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "evaluation caching" `Quick test_evaluation_caching;
    Alcotest.test_case "partial pass locality" `Quick test_partial_locality;
    Alcotest.test_case "a copy's first settle is a full pass" `Quick
      test_copy_runs_full;
    Alcotest.test_case "invalidate forces a full pass" `Quick
      test_invalidate_runs_full;
    Alcotest.test_case "a platform change forces a full pass" `Quick
      test_platform_runs_full;
    Alcotest.test_case "an undone move runs no pass" `Quick
      test_undo_runs_no_pass;
    Alcotest.test_case "a cyclic partial pass keeps its restart" `Quick
      test_cyclic_partial_pass;
    Alcotest.test_case "a cyclic full pass makes the next full" `Quick
      test_cyclic_full_pass;
    Alcotest.test_case "an overflowing refill carries its changes" `Quick
      test_overflow_carries_marks;
    Alcotest.test_case "a context swap runs a partial pass" `Quick
      test_swap_runs_partial;
    Alcotest.test_case "incremental undo" `Quick test_incremental_undo;
    Alcotest.test_case "incremental matches reference (random moves)" `Quick
      test_incremental_matches_reference_random;
    QCheck_alcotest.to_alcotest qcheck_incremental_exact;
    QCheck_alcotest.to_alcotest qcheck_paranoid_deltas;
    QCheck_alcotest.to_alcotest qcheck_chains_match_model;
    Alcotest.test_case "replace platform" `Quick test_replace_platform;
    Alcotest.test_case "makespan path (md28, g128)" `Quick test_makespan_path;
    Alcotest.test_case "undo across 100k accepted moves" `Quick test_long_undo;
    Alcotest.test_case "save allocates O(1) words" `Quick test_save_allocation;
    Alcotest.test_case "flat path matches evaluate (moves, undos, devices)"
      `Quick test_flat_matches_evaluate;
    Alcotest.test_case "flat evaluations booked full, per kind" `Quick
      test_flat_books_kinds;
    QCheck_alcotest.to_alcotest qcheck_refill_follows_versions;
    QCheck_alcotest.to_alcotest qcheck_partial_pass;
    Alcotest.test_case "random matches the list reference" `Quick
      test_random_matches_reference;
  ]
