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
  let snap = Solution.snapshot s in
  Solution.move_to_sw s ~task:1 ~before:None;
  Alcotest.(check (list int)) "snapshot keeps hw" [ 1 ] (Solution.hw_tasks snap);
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
  let s = Solution.all_software (chain_app ()) (platform ~n_clb:200 ()) in
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
      (Repro_workloads.Motion_detection.app ())
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
  let s = Solution.all_software (app ()) (platform ~n_clb:200 ()) in
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
  let s = Solution.all_software (app ()) (platform ~n_clb:200 ()) in
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
  (* A further move reads the rolled-back live graph. *)
  Solution.swap_contexts s ~at:1;
  matches_rebuild "after the undo and a swap";
  Alcotest.(check int) "no rebuild" full_before stats.Solution.full_evals

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
    Alcotest.test_case "replace platform" `Quick test_replace_platform;
    Alcotest.test_case "makespan path (md28, g128)" `Quick test_makespan_path;
    Alcotest.test_case "undo across 100k accepted moves" `Quick test_long_undo;
    Alcotest.test_case "save allocates O(1) words" `Quick test_save_allocation;
  ]
