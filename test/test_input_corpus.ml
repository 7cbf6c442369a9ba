(* The malformed-input corpus: every bad fixture must be rejected with
   a one-line error carrying the right line number — never a raw
   exception — and every good fixture must survive a parse ∘ to_string
   round trip unchanged. *)

module App_io = Repro_taskgraph.App_io
module Platform_io = Repro_arch.Platform_io
module Solution = Repro_dse.Solution

let fixture name = Filename.concat "fixtures" name

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* [line] is the expected 1-based line of the defect; [None] for
   whole-file errors (missing directives, graph-level validation). *)
let check_bad load name ~line ~message () =
  match load (fixture name) with
  | Ok _ -> Alcotest.failf "%s: expected an error, got Ok" name
  | Error msg ->
    (match line with
     | Some n ->
       let prefix = Printf.sprintf "line %d: " n in
       if not (String.length msg >= String.length prefix
               && String.sub msg 0 (String.length prefix) = prefix)
       then
         Alcotest.failf "%s: expected error at line %d, got %S" name n msg
     | None -> ());
    if not (contains msg message) then
      Alcotest.failf "%s: error %S does not mention %S" name msg message;
    if String.contains msg '\n' then
      Alcotest.failf "%s: error is not one line: %S" name msg

let bad_tg name ~line ~message =
  Alcotest.test_case name `Quick (check_bad App_io.load name ~line ~message)

let bad_plat name ~line ~message =
  Alcotest.test_case name `Quick (check_bad Platform_io.load name ~line ~message)

(* The problem the solution-codec fixtures are written for. *)
let on_tiny_problem f =
  match
    (App_io.load (fixture "good_tiny.tg"),
     Platform_io.load (fixture "good_board.plat"))
  with
  | Ok app, Ok platform -> f app platform
  | Error msg, _ | _, Error msg -> Error msg

(* [mapping] is the fixture's content as [Solution.of_mapping]
   arguments, which must be rejected the same way as the decoded
   text. *)
let bad_sol name ~mapping:(sw_orders, contexts, impl) ~message =
  Alcotest.test_case name `Quick (fun () ->
      let decode path =
        on_tiny_problem (fun app platform ->
            Solution.decode app platform
              (In_channel.with_open_bin path In_channel.input_all))
      in
      let of_mapping _path =
        on_tiny_problem (fun app platform ->
            Solution.of_mapping app platform ~sw_orders ~contexts ~impl)
      in
      check_bad decode name ~line:None ~message ();
      check_bad of_mapping name ~line:None ~message ())

let check_tg_roundtrip name () =
  match App_io.load (fixture name) with
  | Error msg -> Alcotest.failf "%s: %s" name msg
  | Ok app ->
    let text = App_io.to_string app in
    (match App_io.parse text with
     | Error msg -> Alcotest.failf "%s: reparse failed: %s" name msg
     | Ok app' ->
       Alcotest.(check string) "to_string stable" text (App_io.to_string app'))

let check_plat_roundtrip name () =
  match Platform_io.load (fixture name) with
  | Error msg -> Alcotest.failf "%s: %s" name msg
  | Ok platform ->
    let text = Platform_io.to_string platform in
    (match Platform_io.parse text with
     | Error msg -> Alcotest.failf "%s: reparse failed: %s" name msg
     | Ok platform' ->
       Alcotest.(check string) "to_string stable" text
         (Platform_io.to_string platform'))

let test_missing_file () =
  match App_io.load (fixture "does_not_exist.tg") with
  | Ok _ -> Alcotest.fail "expected an error for a missing file"
  | Error msg ->
    Alcotest.(check bool) "one line" false (String.contains msg '\n')

let suite =
  [
    (* task-graph corpus *)
    bad_tg "bad_dup_app.tg" ~line:(Some 2) ~message:"duplicate app directive";
    bad_tg "bad_task_out_of_order.tg" ~line:(Some 2) ~message:"out of order";
    bad_tg "bad_impl_before_task.tg" ~line:(Some 2)
      ~message:"must directly follow";
    bad_tg "bad_missing_impl.tg" ~line:None ~message:"has no implementation";
    bad_tg "bad_negative_clbs.tg" ~line:(Some 3)
      ~message:"clbs must be positive";
    bad_tg "bad_nan_duration.tg" ~line:(Some 2)
      ~message:"sw time is not finite";
    bad_tg "bad_truncated_task.tg" ~line:(Some 2)
      ~message:"task directive wants";
    bad_tg "bad_edge_endpoint.tg" ~line:None
      ~message:"edge endpoint out of range";
    bad_tg "bad_negative_kbytes.tg" ~line:(Some 6)
      ~message:"edge data must be non-negative";
    bad_tg "bad_unknown_directive.tg" ~line:(Some 2)
      ~message:"unknown directive";
    bad_tg "bad_cycle.tg" ~line:None ~message:"cycle";
    bad_tg "bad_missing_app.tg" ~line:None ~message:"missing app directive";
    bad_tg "bad_zero_deadline.tg" ~line:(Some 2)
      ~message:"deadline must be positive";
    bad_tg "bad_inf_hw_time.tg" ~line:(Some 3)
      ~message:"hw time is not finite";
    (* platform corpus *)
    bad_plat "bad_no_rc.plat" ~line:None ~message:"missing rc directive";
    bad_plat "bad_negative_clbs.plat" ~line:(Some 3) ~message:"n_clb";
    bad_plat "bad_zero_bus_rate.plat" ~line:(Some 4)
      ~message:"bus rate must be positive";
    bad_plat "bad_dup_platform.plat" ~line:(Some 2)
      ~message:"duplicate platform directive";
    bad_plat "bad_dangling_attr.plat" ~line:(Some 2) ~message:"has no value";
    bad_plat "bad_rc_missing_tr.plat" ~line:(Some 3)
      ~message:"rc needs a tr attribute";
    (* solution codec corpus *)
    bad_sol "bad_empty_contexts.sol"
      ~mapping:([ [ 0; 1 ]; [] ], [ []; []; [] ], [ 0; 0 ])
      ~message:"context 2 empty";
    (* good fixtures round-trip *)
    Alcotest.test_case "good_tiny.tg round-trip" `Quick
      (check_tg_roundtrip "good_tiny.tg");
    Alcotest.test_case "good_diamond.tg round-trip" `Quick
      (check_tg_roundtrip "good_diamond.tg");
    Alcotest.test_case "good_board.plat round-trip" `Quick
      (check_plat_roundtrip "good_board.plat");
    Alcotest.test_case "missing file is a one-line error" `Quick
      test_missing_file;
  ]
