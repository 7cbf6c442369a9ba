open Repro_taskgraph
open Repro_arch
module Solution = Repro_dse.Solution
module Moves = Repro_dse.Moves
module Searchgraph = Repro_sched.Searchgraph
module Rng = Repro_util.Rng

let impl clbs hw_time = { Task.clbs; hw_time }

(* The 5-task diamond pipeline of test_solution, reused as a compact
   but non-trivial move playground. *)
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

(* A canonical state fingerprint for undo-exactness checks. *)
let fingerprint s =
  let n = Solution.size s in
  let bindings =
    List.map
      (fun v ->
        match Solution.binding s v with
        | Searchgraph.Sw -> Printf.sprintf "p%d" (Solution.processor_index s v)
        | Searchgraph.Hw j -> Printf.sprintf "hw%d" j
        | Searchgraph.On_asic a -> Printf.sprintf "asic%d" a)
      (List.init n Fun.id)
  in
  let impls = List.map (Solution.impl_index s) (List.init n Fun.id) in
  Printf.sprintf "b=%s i=%s o=%s c=%s"
    (String.concat "," bindings)
    (String.concat "," (List.map string_of_int impls))
    (String.concat "," (List.map string_of_int (Solution.sw_order s)))
    (String.concat ";"
       (List.map
          (fun members -> String.concat "," (List.map string_of_int members))
          (Solution.contexts s)))

(* The 28-task case study and the benchmark's 132-task layered graph. *)
let inputs () =
  [ ("md28", Test_solution.md28 ()); ("g128", Test_golden.layered128 ()) ]

(* The counting hardware-task draw against the list draw it replaced:
   the same task, and the generator left in the same state. *)
let test_hw_draw_matches_choice_list () =
  List.iter
    (fun (label, (application, plat)) ->
      let rng = Rng.create 13 in
      for _ = 1 to 100 do
        let s = Solution.random rng application plat in
        let seed = Rng.int rng 1_000_000 in
        let by_list = Rng.create seed and by_count = Rng.create seed in
        let expected =
          match Solution.hw_tasks s with
          | [] -> None
          | hw -> Some (Rng.choice_list by_list hw)
        in
        Alcotest.(check (option int))
          (label ^ ": same task") expected
          (Moves.draw_hw_task by_count s);
        Alcotest.(check bool)
          (label ^ ": same generator state") true
          (Rng.state by_list = Rng.state by_count)
      done)
    (inputs ())

let test_feasibility_preserved () =
  let rng = Rng.create 77 in
  let s = Solution.random (Rng.split rng) (app ()) (platform ()) in
  for _ = 1 to 2_000 do
    (match Moves.propose rng Moves.fixed_architecture s with
     | Some _ | None -> ());
    match Solution.check_invariants s with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "invariants broken: %s" msg
  done;
  Alcotest.(check bool) "still feasible" true (Solution.evaluate s <> None)

let test_accepted_moves_feasible () =
  let rng = Rng.create 88 in
  let s = Solution.random (Rng.split rng) (app ()) (platform ()) in
  for _ = 1 to 2_000 do
    match Moves.propose rng Moves.fixed_architecture s with
    | Some _ ->
      Alcotest.(check bool) "feasible after accepted move" true
        (Solution.evaluate s <> None)
    | None -> ()
  done

let test_undo_restores_exactly () =
  let rng = Rng.create 99 in
  let s = Solution.random (Rng.split rng) (app ()) (platform ()) in
  for _ = 1 to 2_000 do
    let before = fingerprint s in
    let before_makespan = Solution.makespan s in
    match Moves.propose rng Moves.fixed_architecture s with
    | Some undo ->
      undo ();
      Alcotest.(check string) "state restored" before (fingerprint s);
      Alcotest.(check (float 1e-12)) "makespan restored" before_makespan
        (Solution.makespan s)
    | None ->
      (* Infeasible moves must have been rolled back internally. *)
      Alcotest.(check string) "no residue" before (fingerprint s)
  done

let test_moves_reach_hardware () =
  (* Ergodicity smoke test: from all-software, moves eventually use the
     circuit; from all-hardware (forced), moves come back. *)
  let rng = Rng.create 123 in
  let s = Solution.all_software (app ()) (platform ()) in
  let seen_hw = ref false in
  for _ = 1 to 3_000 do
    ignore (Moves.propose rng Moves.fixed_architecture s);
    if Solution.hw_tasks s <> [] then seen_hw := true
  done;
  Alcotest.(check bool) "explored hardware" true !seen_hw;
  let all_hw = Solution.all_software (app ()) (platform ~n_clb:1000 ()) in
  List.iter (fun v -> Solution.append_context all_hw ~task:v) [ 0; 1; 2; 3; 4 ];
  let seen_sw = ref false in
  for _ = 1 to 3_000 do
    ignore (Moves.propose rng Moves.fixed_architecture all_hw);
    if List.length (Solution.hw_tasks all_hw) < 5 then seen_sw := true
  done;
  Alcotest.(check bool) "found the way back to software" true !seen_sw

let test_device_moves () =
  let rng = Rng.create 7 in
  let catalogue = [ platform ~n_clb:50 (); platform ~n_clb:100 ();
                    platform ~n_clb:200 () ] in
  let config = Moves.exploration catalogue in
  let s = Solution.random (Rng.split rng) (app ()) (List.nth catalogue 1) in
  let seen_sizes = Hashtbl.create 4 in
  for _ = 1 to 3_000 do
    ignore (Moves.propose rng config s);
    Hashtbl.replace seen_sizes (Platform.n_clb (Solution.platform s)) ()
  done;
  Alcotest.(check bool) "visited several devices" true
    (Hashtbl.length seen_sizes >= 2);
  Alcotest.(check bool) "still feasible" true (Solution.evaluate s <> None)

let test_device_moves_skip_mismatched_processors () =
  (* A catalogue entry with an extra processor must never be selected
     (it would strand tasks); the proposer skips it instead of
     raising. *)
  let rng = Rng.create 15 in
  let dual =
    Platform.make ~name:"dual"
      ~processor:(Resource.processor "cpu")
      ~rc:(Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.01 "rc")
      ~extra:[ Resource.processor "cpu2" ]
      ~bus:Platform.default_bus ()
  in
  let catalogue = [ platform ~n_clb:50 (); dual; platform ~n_clb:200 () ] in
  let config = Moves.exploration catalogue in
  let s = Solution.random (Rng.split rng) (app ()) (platform ~n_clb:100 ()) in
  for _ = 1 to 2_000 do
    ignore (Moves.propose rng config s);
    Alcotest.(check int) "processor count preserved" 1
      (Platform.processor_count (Solution.platform s))
  done

let test_spatial_only_never_touches_impls () =
  let rng = Rng.create 31 in
  let s = Solution.random (Rng.split rng) (app ()) (platform ()) in
  let impls_before = List.map (Solution.impl_index s) [ 0; 1; 2; 3; 4 ] in
  for _ = 1 to 1_000 do
    ignore (Moves.propose rng Moves.spatial_only s)
  done;
  let impls_after = List.map (Solution.impl_index s) [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "implementation genes untouched" impls_before
    impls_after

let qcheck_random_walk_invariants =
  QCheck.Test.make ~name:"random move walks keep invariants and feasibility"
    ~count:40
    QCheck.(pair small_int (int_range 40 300))
    (fun (seed, n_clb) ->
      let rng = Rng.create (seed + 1) in
      let s = Solution.random (Rng.split rng) (app ()) (platform ~n_clb ()) in
      let steps = 300 in
      let rec walk i =
        if i = 0 then true
        else begin
          ignore (Moves.propose rng Moves.fixed_architecture s);
          Solution.check_invariants s = Ok ()
          && Solution.evaluate s <> None
          && walk (i - 1)
        end
      in
      walk steps)

(* The incremental evaluator against forced rebuilds, one move kind at
   a time.  Two copies of one starting solution take the same draws
   from [Moves.propose_kind] in lockstep and undo every applied move
   (the annealer's rejected-move cycle, which keeps every kind's
   preconditions fixed); the rebuild copy calls [Solution.invalidate]
   before each draw, so its evaluations are full builds.  They must
   apply the same moves and agree on every makespan bit.  The
   incremental copy's counters then show that the structural kinds
   were served by the refresh path and that no kind regenerated the
   global sequencing-pair list. *)
let structural_kinds =
  [ Solution.Sw_reorder; Solution.Sw_migrate; Solution.Ctx_migrate;
    Solution.Ctx_create; Solution.Ctx_swap ]

let matrix_kinds =
  (Solution.Impl :: structural_kinds) @ [ Solution.Platform_swap ]

(* A starting point with software tasks and several contexts:
   [Solution.random] packs hardware into as few contexts as the device
   allows, so two mutually independent software tasks go into fresh
   singleton contexts — their independence keeps at least the swap of
   those two contexts acyclic, so every kind has feasible draws. *)
let prepare s =
  let clo = App.closure (Solution.app s) in
  let order = Solution.sw_order s in
  let independent a b =
    (not (Closure.reaches clo a b)) && not (Closure.reaches clo b a)
  in
  let pair =
    List.find_map
      (fun a ->
        List.find_map
          (fun b -> if a < b && independent a b then Some (a, b) else None)
          order)
      order
  in
  match pair with
  | Some (a, b) when Solution.n_contexts s >= 1 ->
    Solution.insert_context s ~task:a ~at:(Solution.n_contexts s);
    Solution.insert_context s ~task:b ~at:(Solution.n_contexts s);
    Solution.n_contexts s >= 3
    && List.length (Solution.sw_order s) >= 4
    && Float.is_finite (Solution.makespan s)
  | _ -> false

(* The first generator seed whose random solution [prepare] accepts. *)
let start_seed (application, plat) =
  let rec find seed =
    if prepare (Solution.random (Rng.create seed) application plat) then seed
    else find (seed + 1)
  in
  find 1

(* Runs the lockstep drive under the given delta-check mode and returns
   the incremental copy's counters. *)
let lockstep ~label ~paranoid ~draws ~seed (application, plat) kind =
  let was = Solution.check_deltas_enabled () in
  Solution.set_check_deltas paranoid;
  Fun.protect ~finally:(fun () -> Solution.set_check_deltas was) @@ fun () ->
  let start () =
    let s = Solution.random (Rng.create seed) application plat in
    assert (prepare s);
    s
  in
  let incremental = start () and rebuild = start () in
  let config =
    Moves.exploration
      [ plat; Platform.with_rc_size plat (2 * Platform.n_clb plat) ]
  in
  let rng_i = Rng.create 101 and rng_r = Rng.create 101 in
  let label = Printf.sprintf "%s, %s" label (Solution.move_kind_label kind) in
  let bits = Int64.bits_of_float in
  let applied = ref 0 in
  for draw = 1 to draws do
    Solution.invalidate rebuild;
    match
      ( Moves.propose_kind rng_i config incremental kind,
        Moves.propose_kind rng_r config rebuild kind )
    with
    | Some undo_i, Some undo_r ->
      incr applied;
      let mi = Solution.makespan incremental
      and mr = Solution.makespan rebuild in
      if bits mi <> bits mr then
        Alcotest.failf "%s: draw %d: makespan %h incremental, %h rebuild"
          label draw mi mr;
      undo_i ();
      undo_r ()
    | None, None -> ()
    | Some _, None | None, Some _ ->
      Alcotest.failf "%s: draw %d applied by one copy only" label draw
  done;
  Alcotest.(check string) (label ^ ": same final state")
    (Solution.encode rebuild) (Solution.encode incremental);
  if !applied = 0 then Alcotest.failf "%s: no draw applied" label;
  Solution.kind_stats (Solution.eval_stats incremental) kind

let test_incremental_matches_rebuild () =
  List.iter
    (fun (label, input) ->
      let seed = start_seed input in
      List.iter
        (fun kind ->
          let ks =
            lockstep ~label ~paranoid:false ~draws:300 ~seed input kind
          in
          let name = label ^ ", " ^ Solution.move_kind_label kind in
          if List.mem kind structural_kinds then
            Alcotest.(check bool) (name ^ ": served incrementally") true
              (ks.Solution.k_incr_evals > 0);
          Alcotest.(check int) (name ^ ": no global pair regeneration") 0
            ks.Solution.k_pair_regens;
          (* The paranoid mode re-derives every emitted delta and
             raises on a mismatch: the drive itself is the check. *)
          ignore (lockstep ~label ~paranoid:true ~draws:100 ~seed input kind))
        matrix_kinds)
    (* md28 itself is judged by the flat pass, which keeps no live
       graph: its padded twin drives the incremental path. *)
    [
      ( "md28+pad",
        let application, plat = Test_solution.md28 () in
        (Test_solution.above_flat application, plat) );
      ("g128", Test_golden.layered128 ());
    ]

(* The static cycle tests.  [realize s mutate] makes a mutation, reads
   whether the solution calls it infeasible and whether a rebuild of
   its spec finds a cycle, then undoes it. *)
let realize s mutate =
  let undo = Solution.save s in
  mutate ();
  let infinite = Solution.makespan s = infinity in
  let cyclic = Searchgraph.evaluate (Solution.spec s) = None in
  undo ();
  (infinite, cyclic)

(* One random draw of each static test the state offers, as
   [(kind, rejected, mutation)]. *)
let static_draws rng s =
  let reorder =
    match List.filter (fun o -> List.length o >= 2) (Solution.sw_orders s) with
    | [] -> None
    | orders ->
      let order = Rng.choice_list rng orders in
      let vs = Rng.choice_list rng order in
      let vd = Rng.choice_list rng order in
      if vs = vd then None
      else
        Some
          ( "reorder",
            Moves.reorder_cyclic s vs vd,
            fun () -> Solution.reorder_sw s ~task:vs ~before:vd )
  in
  let join =
    match Moves.draw_hw_task rng s with
    | None -> None
    | Some vd ->
      let v = Rng.int rng (Solution.size s) in
      if Solution.binding s v = Solution.binding s vd then None
      else
        Some
          ( "join",
            Moves.placement_cyclic s v (Moves.Join vd),
            fun () -> Solution.move_to_context s ~task:v ~dest:vd )
  in
  let fresh =
    let v = Rng.int rng (Solution.size s) in
    let at = Rng.int rng (Solution.n_contexts s + 1) in
    Some
      ( "fresh",
        Moves.placement_cyclic s v (Moves.Fresh_at at),
        fun () -> Solution.insert_context s ~task:v ~at )
  in
  let swap =
    match Solution.n_contexts s with
    | k when k >= 2 ->
      let at = Rng.int rng (k - 1) in
      Some
        ( "swap",
          Moves.swap_cyclic s at,
          fun () -> Solution.swap_contexts s ~at )
    | _ -> None
  in
  List.filter_map Fun.id [ reorder; join; fresh; swap ]

(* Soundness: a draw a predicate rejects is cyclic when made anyway.
   The states are 12 random solutions given two more contexts by
   [prepare], and 12 points of a walk that keeps every feasible move
   (with extra context creations); each kind gets at least 2000 draws
   per input and rejects at least once (both placements too). *)
let test_static_rejections_sound () =
  List.iter
    (fun (label, (application, plat)) ->
      let rng = Rng.create 41 in
      let random () =
        let s = Solution.random (Rng.split rng) application plat in
        ignore (prepare s);
        s
      in
      let walk = random () in
      let states =
        List.init 12 (fun _ -> random ())
        @ List.init 12 (fun _ ->
              for _ = 1 to 100 do
                ignore (Moves.propose rng Moves.fixed_architecture walk);
                ignore
                  (Moves.propose_kind rng Moves.fixed_architecture walk
                     Solution.Ctx_create)
              done;
              Solution.copy walk)
      in
      let draws = Hashtbl.create 4 and rejected = Hashtbl.create 4 in
      let bump table kind =
        Hashtbl.replace table kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt table kind))
      in
      List.iter
        (fun s ->
          for _ = 1 to 250 do
            List.iter
              (fun (kind, cyclic, mutate) ->
                bump draws kind;
                if cyclic then begin
                  bump rejected kind;
                  match realize s mutate with
                  | true, true -> ()
                  | infinite, rebuilt_cyclic ->
                    Alcotest.failf
                      "%s: %s rejected a move that is feasible (makespan \
                       infinite %b, rebuild cyclic %b)"
                      label kind infinite rebuilt_cyclic
                end)
              (static_draws rng s)
          done)
        states;
      List.iter
        (fun kind ->
          let count table =
            Option.value ~default:0 (Hashtbl.find_opt table kind)
          in
          if count draws < 2000 then
            Alcotest.failf "%s: %s: only %d draws" label kind (count draws);
          if count rejected = 0 then
            Alcotest.failf "%s: %s never rejected" label kind)
        [ "reorder"; "join"; "fresh"; "swap" ])
    (inputs ())

(* Exactness for reorders: with every task on the one processor, the
   only cycles are application paths against the chain, so the
   predicate rejects exactly the infeasible reorders.  The orders come
   from a walk of feasible reorders. *)
let test_reorder_test_exact () =
  List.iter
    (fun (label, (application, plat)) ->
      let rng = Rng.create 43 in
      let s = Solution.all_software application plat in
      let draws = ref 0 and rejected = ref 0 in
      for _ = 1 to 40 do
        for _ = 1 to 50 do
          ignore
            (Moves.propose_kind rng Moves.fixed_architecture s
               Solution.Sw_reorder)
        done;
        let order = Solution.sw_order s in
        for _ = 1 to 50 do
          let vs = Rng.choice_list rng order in
          let vd = Rng.choice_list rng order in
          if vs <> vd then begin
            incr draws;
            let predicted = Moves.reorder_cyclic s vs vd in
            if predicted then incr rejected;
            let infinite, _ =
              realize s (fun () -> Solution.reorder_sw s ~task:vs ~before:vd)
            in
            if predicted <> infinite then
              Alcotest.failf
                "%s: reorder %d before %d: predicted %b, infeasible %b" label
                vs vd predicted infinite
          end
        done
      done;
      Alcotest.(check bool) (label ^ ": some reorders rejected") true
        (!rejected > 0);
      Alcotest.(check bool) (label ^ ": some reorders kept") true
        (!rejected < !draws))
    (inputs ())

(* An all-hardware state on a device too large to overflow: a random
   topological order (a walk of feasible reorders from all-software)
   cut into contexts of random length. *)
let all_hardware rng (application, plat) =
  let big = Platform.with_rc_size plat 100_000 in
  let walk = Solution.all_software application big in
  for _ = 1 to 300 do
    ignore
      (Moves.propose_kind rng Moves.fixed_architecture walk Solution.Sw_reorder)
  done;
  let rec cut contexts current = function
    | [] when current = [] -> List.rev contexts
    | [] -> List.rev (List.rev current :: contexts)
    | v :: rest ->
      if Rng.int rng 3 = 0 then
        cut (List.rev (v :: current) :: contexts) [] rest
      else cut contexts (v :: current) rest
  in
  match
    Solution.of_mapping application big ~sw_orders:[ [] ]
      ~contexts:(cut [] [] (Solution.sw_order walk))
      ~impl:(List.init (App.size application) (fun _ -> 0))
  with
  | Ok s -> s
  | Error msg -> Alcotest.failf "all-hardware state: %s" msg

(* Exactness for swaps: with every task in a context, the only cycles
   are application paths against the context order, so the predicate
   rejects exactly the infeasible swaps.  Walks of feasible context
   moves vary the state between rounds of draws. *)
let test_swap_test_exact () =
  List.iter
    (fun (label, input) ->
      let rng = Rng.create 47 in
      let s = all_hardware rng input in
      let draws = ref 0 and rejected = ref 0 in
      for _ = 1 to 40 do
        for _ = 1 to 20 do
          List.iter
            (fun kind ->
              ignore (Moves.propose_kind rng Moves.fixed_architecture s kind))
            [ Solution.Ctx_swap; Solution.Ctx_migrate; Solution.Ctx_create ]
        done;
        Alcotest.(check int) (label ^ ": all hardware") (Solution.size s)
          (Solution.hw_count s);
        let k = Solution.n_contexts s in
        for _ = 1 to 50 do
          let at = Rng.int rng (k - 1) in
          incr draws;
          let predicted = Moves.swap_cyclic s at in
          if predicted then incr rejected;
          let infinite, _ =
            realize s (fun () -> Solution.swap_contexts s ~at)
          in
          if predicted <> infinite then
            Alcotest.failf "%s: swap at %d: predicted %b, infeasible %b" label
              at predicted infinite
        done
      done;
      Alcotest.(check bool) (label ^ ": some swaps rejected") true
        (!rejected > 0);
      Alcotest.(check bool) (label ^ ": some swaps kept") true
        (!rejected < !draws))
    (inputs ())

(* The list-based context tests the moves ran before they walked the
   solution's own context list, kept as the reference for their answers:
   a filtered copy of the contexts and a positional binding. *)
let placement_reference solution v placement =
  let clo = App.closure (Solution.app solution) in
  let contexts =
    List.filter (function [ x ] -> x <> v | _ -> true)
      (Solution.contexts solution)
  in
  let lo, hi =
    match placement with
    | Moves.Fresh_at at -> (at, at)
    | Moves.Join vd ->
      let rec position j = function
        | [] -> invalid_arg "reference: destination in software"
        | members :: rest ->
          if List.mem vd members then j else position (j + 1) rest
      in
      let d = position 0 contexts in
      if Solution.joins_context solution ~task:v ~dest:vd then (d, d + 1)
      else (d + 1, d + 1)
  in
  let reaches = Closure.reaches clo in
  let reaches_into = List.exists (fun x -> x <> v && reaches v x)
  and reached_from = List.exists (fun x -> x <> v && reaches x v) in
  List.exists Fun.id
    (List.mapi
       (fun j members ->
         (j < lo && reaches_into members) || (j >= hi && reached_from members))
       contexts)

let swap_reference solution at =
  let clo = App.closure (Solution.app solution) in
  let contexts = Solution.contexts solution in
  match List.filteri (fun j _ -> j = at || j = at + 1) contexts with
  | [ first; second ] ->
    let reaches = Closure.reaches clo in
    List.exists (fun x -> List.exists (fun y -> reaches x y) second) first
  | _ -> invalid_arg "reference: bad position"

(* Minor plus direct-major words allocated by [f ()]. *)
let words_allocated f =
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = total () in
  f ();
  total () -. before

(* The context moves' static pre-checks, on random md28 states with
   many contexts: every placement and swap answers as the list-based
   reference does, and a sweep over all of them allocates nothing but
   the measurement's own few words. *)
let test_context_prechecks () =
  let application = Repro_workloads.Motion_detection.app () in
  List.iter
    (fun (n_clb, seed) ->
      let plat = Repro_workloads.Motion_detection.platform ~n_clb () in
      let rec many_contexts seed =
        let s = Solution.random (Rng.create seed) application plat in
        if Solution.n_contexts s >= 6 then s else many_contexts (seed + 1)
      in
      let s = many_contexts seed in
      let n = Solution.size s and k = Solution.n_contexts s in
      let joins =
        Array.init n (fun v ->
            Array.of_list
              (List.filter
                 (fun vd ->
                   Solution.context_id s vd >= 0
                   && Solution.context_id s vd <> Solution.context_id s v)
                 (List.init n Fun.id)))
      in
      for v = 0 to n - 1 do
        for at = 0 to k do
          Alcotest.(check bool) "fresh placement"
            (placement_reference s v (Moves.Fresh_at at))
            (Moves.placement_cyclic s v (Moves.Fresh_at at))
        done;
        Array.iter
          (fun vd ->
            Alcotest.(check bool) "join placement"
              (placement_reference s v (Moves.Join vd))
              (Moves.placement_cyclic s v (Moves.Join vd)))
          joins.(v)
      done;
      for at = 0 to k - 2 do
        Alcotest.(check bool) "swap" (swap_reference s at)
          (Moves.swap_cyclic s at)
      done;
      let fresh = Array.init (k + 1) (fun at -> Moves.Fresh_at at) in
      let joins = Array.map (Array.map (fun vd -> Moves.Join vd)) joins in
      let words =
        words_allocated (fun () ->
            for v = 0 to n - 1 do
              for i = 0 to k do
                ignore (Moves.placement_cyclic s v fresh.(i))
              done;
              for j = 0 to Array.length joins.(v) - 1 do
                ignore (Moves.placement_cyclic s v joins.(v).(j))
              done
            done;
            for at = 0 to k - 2 do
              ignore (Moves.swap_cyclic s at)
            done)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d contexts: the sweep allocates <= 16 words (%.0f)"
           k words)
        true (words <= 16.0))
    [ (100, 7); (200, 3) ]

let suite =
  [
    Alcotest.test_case "feasibility preserved" `Quick test_feasibility_preserved;
    Alcotest.test_case "accepted moves feasible" `Quick
      test_accepted_moves_feasible;
    Alcotest.test_case "undo restores exactly" `Quick test_undo_restores_exactly;
    Alcotest.test_case "moves reach hardware and back" `Quick
      test_moves_reach_hardware;
    Alcotest.test_case "device moves" `Quick test_device_moves;
    Alcotest.test_case "device moves skip mismatched processors" `Quick
      test_device_moves_skip_mismatched_processors;
    Alcotest.test_case "spatial-only config" `Quick
      test_spatial_only_never_touches_impls;
    QCheck_alcotest.to_alcotest qcheck_random_walk_invariants;
    Alcotest.test_case "hardware-task draw matches the list draw" `Quick
      test_hw_draw_matches_choice_list;
    Alcotest.test_case "incremental matches rebuild per move kind" `Quick
      test_incremental_matches_rebuild;
    Alcotest.test_case "static cycle rejections are sound" `Quick
      test_static_rejections_sound;
    Alcotest.test_case "reorder cycle test is exact on software" `Quick
      test_reorder_test_exact;
    Alcotest.test_case "swap cycle test is exact on hardware" `Quick
      test_swap_test_exact;
    Alcotest.test_case "context pre-checks: list answers, no allocation" `Quick
      test_context_prechecks;
  ]
