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

(* [application] with isolated filler tasks appended up to one task
   more than the flat evaluator takes ({!Solution.flat_max_tasks}): the
   tests of the live search graph run on it. *)
let above_flat application =
  let n = App.size application in
  let filler id =
    Task.make ~id ~name:(Printf.sprintf "pad%d" id) ~functionality:"pad"
      ~sw_time:0.5 ~impls:[ impl 10 0.25 ]
  in
  App.make ~name:(application.App.name ^ "+pad")
    ?deadline:application.App.deadline
    ~tasks:
      (Array.to_list application.App.tasks
      @ List.init
          (max 0 (Solution.flat_max_tasks + 1 - n))
          (fun i -> filler (n + i)))
    ~edges:(App.edges application) ()

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

(* A 16-task chain whose sink has two implementations: a weight-only
   move at the sink has a two-node cone (config node + sink) while a
   full rebuild evaluates all 17 search-graph nodes. *)
let chain_app () =
  let t id sw_time impls =
    Task.make ~id ~name:(Printf.sprintf "c%d" id) ~functionality:"F" ~sw_time
      ~impls
  in
  let n = 16 in
  let tasks =
    List.init n (fun id ->
        if id = n - 1 then t id 3.0 [ impl 40 1.0; impl 80 0.5 ]
        else t id 1.0 [ impl 20 0.4 ])
  in
  let edges =
    List.init (n - 1) (fun i -> { App.src = i; dst = i + 1; kbytes = 2.0 })
  in
  App.make ~name:"chain16" ~tasks ~edges ()

let test_incremental_locality () =
  let s =
    Solution.all_software (above_flat (chain_app ())) (platform ~n_clb:200 ())
  in
  Solution.append_context s ~task:15;
  Alcotest.(check bool) "feasible" true (Solution.evaluate s <> None);
  let stats = Solution.eval_stats s in
  Alcotest.(check bool) "first evaluation is full" true
    (stats.Solution.full_evals > 0 && stats.Solution.incr_evals = 0);
  let full_nodes_per_eval =
    stats.Solution.full_nodes / stats.Solution.full_evals
  in
  (* Toggle the sink's implementation: structure preserved. *)
  Solution.set_impl s 15 1;
  let incremental = Solution.evaluate s in
  Alcotest.(check int) "served incrementally" 1 stats.Solution.incr_evals;
  Alcotest.(check bool) "counts nodes" true (stats.Solution.incr_nodes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "at least 5x fewer nodes (%d vs %d per eval)"
       stats.Solution.incr_nodes full_nodes_per_eval)
    true
    (stats.Solution.incr_nodes * 5 <= full_nodes_per_eval);
  (* The fast path must agree with a from-scratch evaluation. *)
  match (incremental, Searchgraph.evaluate (Solution.spec s)) with
  | Some got, Some want ->
    Alcotest.(check (float 1e-9)) "makespan matches reference"
      want.Searchgraph.makespan got.Searchgraph.makespan;
    Alcotest.(check (float 1e-9)) "initial reconfig matches"
      want.Searchgraph.initial_reconfig got.Searchgraph.initial_reconfig;
    Alcotest.(check (float 1e-9)) "comm matches" want.Searchgraph.comm
      got.Searchgraph.comm
  | _ -> Alcotest.fail "feasibility mismatch between fast path and reference"

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
  Alcotest.(check (float 1e-9)) "undo restores the makespan through the \
                                 incremental path"
    original (Solution.makespan s);
  (* A structural mutation after incremental activity is served by the
     dynamic-edge refresh and stays correct (insert before task 4 to
     keep the software order precedence-consistent). *)
  Solution.move_to_sw s ~task:3 ~before:(Some 4);
  match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
  | Some got, Some want ->
    Alcotest.(check (float 1e-9)) "structural fallback matches reference"
      want.Searchgraph.makespan got.Searchgraph.makespan
  | None, None -> Alcotest.fail "structural move should stay feasible"
  | _ -> Alcotest.fail "feasibility mismatch after structural move"

let test_incremental_matches_reference_random () =
  (* Oracle test over random accepted/undone move sequences: the cached
     (possibly incremental) evaluation must always equal a fresh
     Searchgraph.evaluate of the current spec. *)
  let rng = Rng.create 77 in
  let s =
    Solution.random rng
      (above_flat (Repro_workloads.Motion_detection.app ()))
      (Repro_workloads.Motion_detection.platform ~n_clb:800 ())
  in
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
  Alcotest.(check bool) "incremental path exercised" true
    (stats.Solution.incr_evals > 0)

(* Every structural move kind must be served by the dynamic-edge
   refresh — no full rebuild — and each evaluation must equal a
   from-scratch [Searchgraph.evaluate] of the same spec bitwise. *)
let test_structural_moves_incremental () =
  let s = Solution.all_software (above_flat (app ())) (platform ~n_clb:200 ()) in
  Alcotest.(check bool) "warm" true (Solution.evaluate s <> None);
  let stats = Solution.eval_stats s in
  let full_before = stats.Solution.full_evals in
  let check_move name kind mutate =
    mutate ();
    (match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
     | Some got, Some want ->
       Alcotest.(check bool)
         (name ^ ": bit-identical to scratch evaluation")
         true
         (got.Searchgraph.makespan = want.Searchgraph.makespan
          && got.Searchgraph.initial_reconfig = want.Searchgraph.initial_reconfig
          && got.Searchgraph.dynamic_reconfig = want.Searchgraph.dynamic_reconfig
          && got.Searchgraph.comm = want.Searchgraph.comm
          && got.Searchgraph.finish = want.Searchgraph.finish)
     | _ -> Alcotest.failf "%s: expected a feasible evaluation" name);
    Alcotest.(check int) (name ^ ": no rebuild") full_before
      stats.Solution.full_evals;
    Alcotest.(check bool) (name ^ ": incremental eval recorded") true
      ((Solution.kind_stats stats kind).Solution.k_incr_evals > 0)
  in
  check_move "sw_reorder" Solution.Sw_reorder (fun () ->
      Solution.reorder_sw s ~task:2 ~before:1);
  check_move "ctx_create" Solution.Ctx_create (fun () ->
      Solution.insert_context s ~task:1 ~at:0);
  check_move "ctx_create2" Solution.Ctx_create (fun () ->
      Solution.insert_context s ~task:2 ~at:1);
  check_move "ctx_swap" Solution.Ctx_swap (fun () ->
      Solution.swap_contexts s ~at:0);
  check_move "ctx_migrate" Solution.Ctx_migrate (fun () ->
      Solution.move_to_context s ~task:2 ~dest:1);
  check_move "sw_migrate" Solution.Sw_migrate (fun () ->
      Solution.move_to_sw s ~task:1 ~before:(Some 3));
  check_move "impl" Solution.Impl (fun () -> Solution.set_impl s 1 1);
  (* Undo of a structural move replays the delta log — still no
     rebuild, still the exact pre-move value. *)
  let before = Solution.makespan s in
  let restore = Solution.save s in
  Solution.append_context s ~task:3;
  ignore (Solution.makespan s);
  restore ();
  Alcotest.(check bool) "undo restores exactly" true
    (Solution.makespan s = before);
  Alcotest.(check int) "undo avoided rebuilds" full_before
    stats.Solution.full_evals

let qcheck_incremental_exact =
  (* Random move sequences with interleaved undo: the incrementally
     maintained evaluation must stay bitwise equal to a from-scratch
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

(* Native deltas must serve every structural kind without a global
   pair regeneration, while emitting region pairs and patching the
   boundary terms of binding-flipping moves. *)
let test_native_delta_counters () =
  (* Pin the default mode: under REPRO_CHECK_DELTAS the paranoid
     verification itself regenerates the global list, which is exactly
     what the counters are here to prove the mutators never need. *)
  let was = Solution.check_deltas_enabled () in
  Solution.set_check_deltas false;
  Fun.protect ~finally:(fun () -> Solution.set_check_deltas was) @@ fun () ->
  let s = Solution.all_software (above_flat (app ())) (platform ~n_clb:200 ()) in
  Alcotest.(check bool) "warm" true (Solution.evaluate s <> None);
  Solution.insert_context s ~task:1 ~at:0;
  ignore (Solution.makespan s);
  Solution.reorder_sw s ~task:2 ~before:0;
  ignore (Solution.makespan s);
  Solution.move_to_context s ~task:2 ~dest:1;
  ignore (Solution.makespan s);
  Solution.move_to_sw s ~task:1 ~before:(Some 3);
  ignore (Solution.makespan s);
  let stats = Solution.eval_stats s in
  Alcotest.(check int) "no global pair regeneration" 0
    stats.Solution.pair_regens;
  Alcotest.(check bool) "mutators emitted region pairs" true
    (stats.Solution.pairs_emitted > 0);
  (* ctx_create rebinds task 1 across the Sw/Hw boundary: both of its
     application edges change their crossing status. *)
  let created = Solution.kind_stats stats Solution.Ctx_create in
  Alcotest.(check int) "ctx_create patched both incident terms" 2
    created.Solution.k_comm_patched;
  Alcotest.(check int) "ctx_create regenerated nothing" 0
    created.Solution.k_pair_regens;
  List.iter
    (fun kind ->
      Alcotest.(check int) "per-kind regens stay zero" 0
        (Solution.kind_stats stats kind).Solution.k_pair_regens)
    [ Solution.Sw_reorder; Solution.Sw_migrate; Solution.Ctx_migrate;
      Solution.Ctx_create ]

let qcheck_paranoid_deltas =
  (* The paranoid mode re-derives every move's pair delta from a global
     regenerate-and-diff and faults on any mismatch, so simply driving
     random sequences (with undo and mid-sequence codec round trips)
     under the flag is the property. *)
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
   that same id, at another position: the emitted delta must still
   match the regenerated pair list, with no rebuild. *)
let test_respawn_freed_id () =
  let was = Solution.check_deltas_enabled () in
  Solution.set_check_deltas true;
  Fun.protect ~finally:(fun () -> Solution.set_check_deltas was) @@ fun () ->
  let s = Solution.all_software (above_flat (app ())) (platform ~n_clb:100 ()) in
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
  (* A further move reads the rolled-back live graph. *)
  Solution.swap_contexts s ~at:1;
  matches_rebuild "after the undo and a swap";
  Alcotest.(check int) "no rebuild" full_before stats.Solution.full_evals

let with_check_deltas f =
  let was = Solution.check_deltas_enabled () in
  Solution.set_check_deltas true;
  Fun.protect ~finally:(fun () -> Solution.set_check_deltas was) f

(* Eight independent tasks of 20 CLBs, padded with isolated fillers
   above the flat evaluator's range: on a 100-CLB device every context
   order is acyclic and any three of the eight share a context. *)
let free_app () =
  let t id =
    Task.make ~id ~name:(Printf.sprintf "f%d" id) ~functionality:"F"
      ~sw_time:(1.0 +. float_of_int id)
      ~impls:[ impl 20 (0.5 +. float_of_int id) ]
  in
  above_flat (App.make ~name:"free8" ~tasks:(List.init 8 t) ~edges:[] ())

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

(* One context-chain move on [layout] under the paranoid delta check
   (a divergent delta raises): the contexts end as [expect], the live
   evaluation carries a rebuild's bits, and after the undo the same move
   on the rolled-back live graph does too — with no rebuild. *)
let pinned_ctx_move label layout ~expect move =
  with_check_deltas @@ fun () ->
  let s = laid_out layout in
  Alcotest.(check (list (list int))) (label ^ ": laid out")
    (List.map (List.sort compare) layout) (sorted_contexts s);
  let stats = Solution.eval_stats s in
  let full = stats.Solution.full_evals in
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
  matches_rebuild " (again, after the undo)";
  Alcotest.(check int) (label ^ ": no rebuild") full stats.Solution.full_evals

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
   the tasks spread over many contexts, under the paranoid delta check
   (a divergent delta raises): the context kinds drawn directly, the
   mixed lottery otherwise, a third of the moves undone, and every
   evaluation a rebuild's bits. *)
let qcheck_md28_context_deltas =
  QCheck.Test.make ~name:"md28 context moves match the regenerated pairs"
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

(* The makespan read off the live state must carry the same bits as the
   evaluation record and as a from-scratch evaluation, be infinite
   exactly on infeasible states, and reading it first must not change
   the record [evaluate] returns.  Two solutions run the same moves in
   lockstep: [b] reads the record before the makespan; [a] reads the
   makespan and, on a coin, the record after it — so an undo often
   restores a state whose record was never built — and a copy of [a]
   (which carries no live graph) builds its own.  Besides moves, direct
   mutations and their undo, the sequence mutates on top of infeasible
   states and undoes nested saves out of order: the paths that drop
   the live graph. *)
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
            (* A mutation on top of a cyclic one has lost its diff base:
               the live graph is dropped and rebuilt. *)
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
               rolls the log back past the inner save point, so the
               inner one no longer matches it and drops the live graph.
               The state is the inner save point's. *)
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

(* The flat path: small applications keep no live graph, so after every
   move and every undo the makespan must carry the bits of a fresh
   [Searchgraph.evaluate] of the spec.  Device moves swap the platform
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
  if App.size application > Solution.flat_max_tasks then
    Alcotest.failf "%s: above the flat range" label;
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
  Alcotest.(check int) (label ^ ": no incremental evaluation") 0
    stats.Solution.incr_evals;
  Alcotest.(check int) (label ^ ": no edge edited") 0
    stats.Solution.edges_edited;
  Alcotest.(check bool) (label ^ ": every evaluation booked full") true
    (stats.Solution.full_evals > 0)

let test_flat_matches_evaluate () =
  List.iter
    (fun input ->
      flat_matches_evaluate ~paranoid:false input;
      flat_matches_evaluate ~paranoid:true input)
    (flat_inputs ())

(* A flat evaluation books the kind of the mutation before it, which
   the traced benchmark's per-kind mix reads. *)
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
    Alcotest.test_case "incremental locality" `Quick test_incremental_locality;
    Alcotest.test_case "incremental undo" `Quick test_incremental_undo;
    Alcotest.test_case "incremental matches reference (random moves)" `Quick
      test_incremental_matches_reference_random;
    Alcotest.test_case "structural moves served incrementally" `Quick
      test_structural_moves_incremental;
    QCheck_alcotest.to_alcotest qcheck_incremental_exact;
    Alcotest.test_case "native delta counters" `Quick
      test_native_delta_counters;
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
    Alcotest.test_case "random matches the list reference" `Quick
      test_random_matches_reference;
  ]
