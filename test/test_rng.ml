module Rng = Repro_util.Rng

let check = Alcotest.(check bool)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check "different seeds diverge" true (!same < 4)

let test_copy_independent () =
  let a = Rng.create 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copies aligned" (Rng.bits64 a) (Rng.bits64 b);
  let _ = Rng.bits64 a in
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  check "copies then diverge by drift" true (va <> vb)

let test_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  check "split stream is distinct" true (!matches < 4)

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    check "0 <= v < 7" true (v >= 0 && v < 7)
  done

let test_int_covers_range () =
  let rng = Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng 5) <- true
  done;
  check "all values reached" true (Array.for_all Fun.id seen)

let test_int_in () =
  let rng = Rng.create 11 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-3) 4 in
    check "in [-3,4]" true (v >= -3 && v <= 4)
  done

let test_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    check "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_float_mean () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  check "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_bernoulli_rate () =
  let rng = Rng.create 19 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_gaussian_moments () =
  let rng = Rng.create 23 in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  check "mean near 0" true (abs_float mean < 0.03);
  check "variance near 1" true (abs_float (var -. 1.0) < 0.05)

let test_shuffle_permutation () =
  let rng = Rng.create 29 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_choice_member () =
  let rng = Rng.create 31 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let drawn = Rng.choice rng a in
    check "member" true (Array.exists (fun x -> x = drawn) a)
  done

let test_choice_list () =
  let rng = Rng.create 37 in
  for _ = 1 to 100 do
    let v = Rng.choice_list rng [ 1; 2; 3 ] in
    check "member" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty list rejected"
    (Invalid_argument "Rng.choice_list: empty list") (fun () ->
      ignore (Rng.choice_list rng []))

let test_pick_weighted () =
  let rng = Rng.create 41 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.pick_weighted rng [ (1.0, "a"); (3.0, "b"); (0.0, "c") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check "zero weight never drawn" true (get "c" = 0);
  check "b about 3x a" true
    (let a = float_of_int (get "a") and b = float_of_int (get "b") in
     b /. a > 2.5 && b /. a < 3.5)

(* Known answers recorded from the boxed-record generator: the stream,
   the checkpointed state words and a split child must never move, or
   old checkpoints would resume onto a different trajectory. *)
let test_known_answers () =
  let rng = Rng.create 1 in
  let first =
    [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
      7218738570589545383L; -5586072249713871245L; 2648436617965840162L;
      1310552918490157286L; 7031611932980406429L ]
  in
  List.iter
    (fun want -> Alcotest.(check int64) "bits64" want (Rng.bits64 rng))
    first;
  Alcotest.(check (array int64)) "state after 8 draws"
    [| -4487280415371050469L; -8484006190168559738L; 7774957923122542603L;
       2979536260719782586L |]
    (Rng.state rng);
  let child = Rng.split rng in
  List.iter
    (fun want -> Alcotest.(check int64) "split child" want (Rng.bits64 child))
    [ 6243110573602142007L; -5343123491108834659L; -6027086951509973698L;
      -1212018186333133171L ];
  Alcotest.(check (array int64)) "parent state after split"
    [| 7107325745699833639L; 2314015012477703574L; 2953302140961045008L;
       1200090980622275754L |]
    (Rng.state rng);
  let resumed = Rng.of_state (Rng.state rng) in
  Alcotest.(check int64) "of_state continues the stream" (Rng.bits64 rng)
    (Rng.bits64 resumed)

(* A GA generation makes ~158k coin flips; each must stay off the
   minor heap. *)
let test_bool_allocation () =
  let rng = Rng.create 5 in
  let n = 10_000 in
  let heads = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    if Rng.bool rng then incr heads
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "Rng.bool allocates %.2f words per draw (<= 1)" per_draw)
    true (per_draw <= 1.0);
  Alcotest.(check bool) "fair enough" true (!heads > 4_500 && !heads < 5_500)

let qcheck_int_bounds =
  QCheck.Test.make ~name:"Rng.int always within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

(* The bulk kernels against the single-draw loops they stand for:
   equal results and equal generator states afterwards. *)

let probabilities = [| 0.0; 0.02; 0.5; 1.0 |]

let full_ints rng n = Array.init n (fun _ -> Int64.to_int (Rng.bits64 rng))

let qcheck_select_into =
  QCheck.Test.make ~name:"Rng.select_into is its single-draw loop" ~count:300
    QCheck.(pair small_nat (int_range 0 300))
    (fun (seed, n) ->
      let data = Rng.create (seed + 1_000) in
      let a = full_ints data n and b = full_ints data n in
      let fast = Rng.create seed in
      let slow = Rng.copy fast in
      let dst = Array.make n 0 in
      Rng.select_into fast a b dst;
      let want =
        Array.init n (fun i -> if Rng.bool slow then a.(i) else b.(i))
      in
      dst = want && Rng.state fast = Rng.state slow)

let qcheck_select_bools_into =
  QCheck.Test.make ~name:"Rng.select_bools_into is its single-draw loop"
    ~count:300
    QCheck.(pair small_nat (int_range 0 300))
    (fun (seed, n) ->
      let data = Rng.create (seed + 1_000) in
      let a = Array.init n (fun _ -> Rng.bool data)
      and b = Array.init n (fun _ -> Rng.bool data) in
      let fast = Rng.create seed in
      let slow = Rng.copy fast in
      (* In place over [b], as a selection may be. *)
      let want =
        Array.init n (fun i -> if Rng.bool slow then a.(i) else b.(i))
      in
      Rng.select_bools_into fast a b b;
      b = want && Rng.state fast = Rng.state slow)

(* Walks every hit, as [Ga.mutate] does, from a random start. *)
let qcheck_first_below =
  QCheck.Test.make ~name:"Rng.first_below is its single-draw loop" ~count:500
    QCheck.(
      quad small_nat (int_range 0 300) (int_bound 3) (int_range 0 300))
    (fun (seed, until, which, from) ->
      let p = probabilities.(which) in
      let from = from mod (until + 2) in
      let fast = Rng.create seed in
      let slow = Rng.copy fast in
      let rec walk from =
        let k = Rng.first_below fast p ~from ~until in
        if k < until then k :: walk (k + 1) else [ k ]
      in
      let want =
        List.filter (fun _ -> Rng.bernoulli slow p)
          (List.init (max 0 (until - from)) (fun i -> from + i))
        @ [ until ]
      in
      walk from = want && Rng.state fast = Rng.state slow)

let test_select_unequal_lengths () =
  let rng = Rng.create 3 in
  let short = [| 1; 2 |] and long = [| 1; 2; 3 |] in
  let raises f =
    Alcotest.check_raises "unequal lengths"
      (Invalid_argument "Rng.select_into: arrays of unequal lengths") f
  in
  raises (fun () -> Rng.select_into rng short long long);
  raises (fun () -> Rng.select_into rng long short long);
  raises (fun () -> Rng.select_into rng long long short);
  Alcotest.check_raises "unequal lengths, booleans"
    (Invalid_argument "Rng.select_bools_into: arrays of unequal lengths")
    (fun () -> Rng.select_bools_into rng [| true |] [||] [| false |]);
  let before = Rng.state (Rng.create 3) in
  Alcotest.(check (array int64)) "no draw before the check" before
    (Rng.state rng)

let test_first_below_empty () =
  let rng = Rng.create 4 in
  let before = Rng.state rng in
  Alcotest.(check int) "from = until" 7
    (Rng.first_below rng 1.0 ~from:7 ~until:7);
  Alcotest.(check int) "from > until" 7
    (Rng.first_below rng 1.0 ~from:9 ~until:7);
  Alcotest.(check (array int64)) "no draw" before (Rng.state rng)

let test_kernels_allocation () =
  let rng = Rng.create 6 in
  let a = Array.make 264 1 and b = Array.make 264 2 in
  let dst = Array.make 264 0 in
  let ha = Array.make 264 true and hb = Array.make 264 false in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Rng.select_into rng a b dst;
    Rng.select_bools_into rng ha hb hb;
    ignore (Rng.first_below rng 0.02 ~from:0 ~until:264)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "the kernels allocate %.0f words in 100 rounds" words)
    true (words < 100.0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy" `Quick test_copy_independent;
    Alcotest.test_case "split" `Quick test_split_independent;
    Alcotest.test_case "known answers" `Quick test_known_answers;
    Alcotest.test_case "bool allocation" `Quick test_bool_allocation;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "int_in" `Quick test_int_in;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "choice member" `Quick test_choice_member;
    Alcotest.test_case "choice_list" `Quick test_choice_list;
    Alcotest.test_case "pick_weighted" `Quick test_pick_weighted;
    QCheck_alcotest.to_alcotest qcheck_int_bounds;
    QCheck_alcotest.to_alcotest qcheck_select_into;
    QCheck_alcotest.to_alcotest qcheck_select_bools_into;
    QCheck_alcotest.to_alcotest qcheck_first_below;
    Alcotest.test_case "select unequal lengths" `Quick
      test_select_unequal_lengths;
    Alcotest.test_case "first_below, no index" `Quick test_first_below_empty;
    Alcotest.test_case "kernels allocation" `Quick test_kernels_allocation;
  ]
