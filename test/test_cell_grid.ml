(* The campaign runner behind dse-sweep and dse-compare: one pool call
   per grid, each finished cell filed into the checkpoint as it lands,
   a cell the stop cut short left to re-run, and lost cells reported
   as warnings instead of aborting the grid. *)

module Grid = Repro_dse.Cell_grid
module Engine = Repro_dse.Engine
module Checkpoint = Repro_util.Checkpoint

let with_temp f =
  let path = Filename.temp_file "repro_grid" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let store ?(fingerprint = "grid n=6") path =
  { Grid.path; kind = "test-grid"; fingerprint; encode = string_of_int;
    decode = int_of_string }

let value i = (i * i) + 7
let n = 6
let never () = false

(* The cells of a checkpoint, as sorted (index, value) pairs. *)
let filed ck =
  Hashtbl.fold (fun i v acc -> (i, v) :: acc) (Grid.load ck) []
  |> List.sort compare

let complete = function
  | `Complete (cells, warnings) -> (Array.to_list cells, warnings)
  | `Interrupted (done_cells, total) ->
    Alcotest.failf "interrupted at %d/%d" done_cells total

let clean = (List.init n (fun i -> Some (value i)), [])

let result =
  Alcotest.(pair (list (option int)) (list (pair int string)))

let test_one_call_files_every_cell () =
  List.iter
    (fun jobs ->
      with_temp @@ fun path ->
      let ck = store path in
      let outcome =
        Grid.run ~checkpoint:ck ~jobs ~should_stop:never n (fun i ~stop:_ ->
            (value i, Engine.Complete))
      in
      Alcotest.check result (Printf.sprintf "jobs %d" jobs) clean
        (complete outcome);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "jobs %d: every cell checkpointed" jobs)
        (List.init n (fun i -> (i, value i)))
        (filed ck))
    [ 1; 2; 3 ]

let test_rerun_skips_filed_cells () =
  with_temp @@ fun path ->
  let ck = store path in
  ignore
    (Grid.run ~checkpoint:ck ~jobs:2 ~should_stop:never n (fun i ~stop:_ ->
         (value i, Engine.Complete)));
  let ran = Atomic.make 0 in
  let outcome =
    Grid.run ~checkpoint:ck ~jobs:2 ~should_stop:never n (fun i ~stop:_ ->
        Atomic.incr ran;
        (value i, Engine.Complete))
  in
  Alcotest.check result "from the store" clean (complete outcome);
  Alcotest.(check int) "no cell re-run" 0 (Atomic.get ran)

let test_cut_short_cell_reruns () =
  with_temp @@ fun path ->
  let ck = store path in
  (* One domain, in index order: cell 0 finishes, the stop rises while
     cell 1 is searching, and cells 2.. never start. *)
  let stop = Atomic.make false in
  let outcome =
    Grid.run ~checkpoint:ck ~jobs:1 ~should_stop:(fun () -> Atomic.get stop)
      n (fun i ~stop:_ ->
        if i = 1 then begin
          Atomic.set stop true;
          (-1, Engine.Interrupted)
        end
        else (value i, Engine.Complete))
  in
  (match outcome with
   | `Interrupted (done_cells, total) ->
     Alcotest.(check (pair int int)) "1 of 6 completed" (1, n)
       (done_cells, total)
   | `Complete _ -> Alcotest.fail "a stopped grid reported complete");
  Alcotest.(check (list (pair int int))) "only cell 0 filed"
    [ (0, value 0) ] (filed ck);
  let ran = ref [] in
  let resumed =
    Grid.run ~checkpoint:ck ~jobs:1 ~should_stop:never n (fun i ~stop:_ ->
        ran := i :: !ran;
        (value i, Engine.Complete))
  in
  Alcotest.check result "resume = uninterrupted" clean (complete resumed);
  Alcotest.(check (list int)) "cut-short cell re-ran" [ 1; 2; 3; 4; 5 ]
    (List.rev !ran)

let test_cell_finished_under_stop_is_kept () =
  with_temp @@ fun path ->
  let ck = store path in
  (* The stop rises during cell 0, but its search ran to the end of its
     budget: the value is final and is filed. *)
  let stop = Atomic.make false in
  let outcome =
    Grid.run ~checkpoint:ck ~jobs:1 ~should_stop:(fun () -> Atomic.get stop)
      n (fun i ~stop:_ ->
        Atomic.set stop true;
        (value i, Engine.Complete))
  in
  (match outcome with
   | `Interrupted (1, 6) -> ()
   | `Interrupted (d, t) -> Alcotest.failf "interrupted at %d/%d" d t
   | `Complete _ -> Alcotest.fail "a stopped grid reported complete");
  Alcotest.(check (list (pair int int))) "cell 0 filed" [ (0, value 0) ]
    (filed ck)

let test_own_deadline_salvage_kept () =
  (* Cell 2 searches until its own deadline and returns its
     best-so-far as interrupted; with no global stop the value is kept
     and warned about. *)
  let outcome =
    Grid.run ~cell_timeout:0.2 ~jobs:2 ~should_stop:never n (fun i ~stop ->
        if i = 2 then begin
          while not (stop ()) do Domain.cpu_relax () done;
          (value i, Engine.Interrupted)
        end
        else (value i, Engine.Complete))
  in
  Alcotest.check result "kept and warned"
    (fst clean, [ (2, "timed out (best-so-far kept)") ])
    (complete outcome)

let test_lost_cells_are_warnings () =
  with_temp @@ fun path ->
  let ck = store path in
  let outcome =
    Grid.run ~checkpoint:ck ~cell_timeout:0.2 ~jobs:2 ~should_stop:never n
      (fun i ~stop ->
        match i with
        | 1 -> failwith "boom"
        | 3 ->
          while not (stop ()) do Domain.cpu_relax () done;
          failwith "no best yet"
        | _ -> (value i, Engine.Complete))
  in
  Alcotest.check result "survivors and warnings"
    ( List.init n (fun i -> if i = 1 || i = 3 then None else Some (value i)),
      [ (1, "failed: Failure(\"boom\")");
        (3, "timed out with nothing to salvage; dropped") ] )
    (complete outcome);
  Alcotest.(check (list int)) "lost cells not filed" [ 0; 2; 4; 5 ]
    (List.map fst (filed ck))

let test_store_errors () =
  (* Fixture-style: each refusal is one line naming the file. *)
  with_temp @@ fun path ->
  ignore
    (Grid.run ~checkpoint:(store path) ~jobs:1 ~should_stop:never n
       (fun i ~stop:_ -> (value i, Engine.Complete)));
  let refused ck expected =
    match Grid.load ck with
    | _ -> Alcotest.failf "accepted: expected %S" expected
    | exception Failure msg -> Alcotest.(check string) expected expected msg
  in
  refused
    (store ~fingerprint:"grid n=7" path)
    (path ^ ": checkpoint was produced under different campaign parameters");
  Checkpoint.save path ~kind:"test-grid" "grid n=6\n0\t7\nno tab here\n";
  refused (store path) (path ^ ": malformed checkpoint cell");
  Checkpoint.save path ~kind:"test-grid" "grid n=6\nzero\t7\n";
  refused (store path) (path ^ ": malformed checkpoint cell index")

let test_failed_write_surfaces_after_drain () =
  (* A store whose directory is a regular file cannot be written: every
     cell still runs, then the write error is raised. *)
  with_temp @@ fun file ->
  Out_channel.with_open_text file ignore;
  let ck = store (Filename.concat file "cells.ckpt") in
  let ran = Atomic.make 0 in
  (match
     Grid.run ~checkpoint:ck ~jobs:2 ~should_stop:never n (fun i ~stop:_ ->
         Atomic.incr ran;
         (value i, Engine.Complete))
   with
   | _ -> Alcotest.fail "a failed checkpoint write was swallowed"
   | exception Sys_error _ -> ());
  Alcotest.(check int) "every cell ran" n (Atomic.get ran)

let suite =
  [
    Alcotest.test_case "one call files every cell" `Quick
      test_one_call_files_every_cell;
    Alcotest.test_case "rerun skips filed cells" `Quick
      test_rerun_skips_filed_cells;
    Alcotest.test_case "cell cut short by the stop re-runs" `Quick
      test_cut_short_cell_reruns;
    Alcotest.test_case "cell finished under the stop is kept" `Quick
      test_cell_finished_under_stop_is_kept;
    Alcotest.test_case "own-deadline salvage kept and warned" `Quick
      test_own_deadline_salvage_kept;
    Alcotest.test_case "lost cells are warnings" `Quick
      test_lost_cells_are_warnings;
    Alcotest.test_case "store errors are one line" `Quick test_store_errors;
    Alcotest.test_case "failed write surfaces after drain" `Quick
      test_failed_write_surfaces_after_drain;
  ]
