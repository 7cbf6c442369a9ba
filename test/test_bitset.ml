module Bitset = Repro_util.Bitset
module IntSet = Set.Make (Int)

let check = Alcotest.(check bool)

let test_empty () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "capacity" 100 (Bitset.capacity b);
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal b);
  for i = 0 to 99 do
    check "not mem" false (Bitset.mem b i)
  done

let test_add_remove () =
  let b = Bitset.create 70 in
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 69;
  check "mem 0" true (Bitset.mem b 0);
  check "mem 63 (word boundary)" true (Bitset.mem b 63);
  check "mem 69" true (Bitset.mem b 69);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal b);
  Bitset.remove b 63;
  check "removed" false (Bitset.mem b 63);
  Alcotest.(check int) "cardinal after remove" 2 (Bitset.cardinal b);
  Bitset.remove b 63 (* idempotent *);
  Alcotest.(check int) "still 2" 2 (Bitset.cardinal b)

let test_out_of_range () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "mem out of range"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.mem b 10));
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.mem b (-1)))

let test_union () =
  let a = Bitset.of_list 50 [ 1; 2; 3 ] in
  let b = Bitset.of_list 50 [ 3; 4 ] in
  Bitset.union_into a b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.to_list a);
  Alcotest.(check (list int)) "src untouched" [ 3; 4 ] (Bitset.to_list b)

let test_union_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 20 in
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset.union_into: capacity mismatch") (fun () ->
      Bitset.union_into a b)

let test_copy_clear_equal () =
  let a = Bitset.of_list 40 [ 5; 7 ] in
  let b = Bitset.copy a in
  check "copies equal" true (Bitset.equal a b);
  Bitset.add b 9;
  check "copies independent" false (Bitset.equal a b);
  Bitset.clear b;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinal b)

let test_iter_fold () =
  let b = Bitset.of_list 100 [ 10; 20; 30 ] in
  let collected = ref [] in
  Bitset.iter (fun i -> collected := i :: !collected) b;
  Alcotest.(check (list int)) "iter ascending" [ 30; 20; 10 ] !collected;
  Alcotest.(check int) "fold sum" 60 (Bitset.fold (fun i acc -> i + acc) b 0)

let qcheck_matches_intset =
  let ops =
    QCheck.(list_of_size Gen.(int_range 0 200) (pair bool (int_range 0 99)))
  in
  QCheck.Test.make ~name:"Bitset behaves like Set.Make(Int)" ~count:300 ops
    (fun operations ->
      let b = Bitset.create 100 in
      let reference = ref IntSet.empty in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add b i;
            reference := IntSet.add i !reference
          end
          else begin
            Bitset.remove b i;
            reference := IntSet.remove i !reference
          end)
        operations;
      Bitset.to_list b = IntSet.elements !reference
      && Bitset.cardinal b = IntSet.cardinal !reference)

let qcheck_iter_matches_mem_scan =
  (* Capacities just around multiples of the word size, with every
     word's top (sign) bit often set: the word walk must list exactly
     the indices a [mem] scan finds, in ascending order. *)
  let w = Sys.int_size in
  let gen =
    QCheck.(
      triple (int_range 0 4) (int_range (-2) 2)
        (list_of_size Gen.(int_range 0 80) (int_range 0 ((5 * w) + 1))))
  in
  QCheck.Test.make ~name:"to_list equals a mem scan" ~count:300 gen
    (fun (words, offset, raw) ->
      let capacity = max 0 ((words * w) + offset) in
      let tops = List.init (words + 1) (fun k -> (k * w) + w - 1) in
      let b = Bitset.create capacity in
      List.iter
        (fun i -> if i < capacity then Bitset.add b i)
        (tops @ raw);
      let scan =
        List.filter (Bitset.mem b) (List.init capacity Fun.id)
      in
      Bitset.to_list b = scan
      && Bitset.fold (fun _ acc -> acc + 1) b 0 = Bitset.cardinal b)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "union" `Quick test_union;
    Alcotest.test_case "union mismatch" `Quick test_union_mismatch;
    Alcotest.test_case "copy/clear/equal" `Quick test_copy_clear_equal;
    Alcotest.test_case "iter/fold" `Quick test_iter_fold;
    QCheck_alcotest.to_alcotest qcheck_matches_intset;
    QCheck_alcotest.to_alcotest qcheck_iter_matches_mem_scan;
  ]
