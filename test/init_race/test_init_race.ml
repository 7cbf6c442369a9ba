(* The first checkpoint CRC and the first lease id of a process may be
   computed by several domains at the same moment: racing portfolio
   lanes, restarts checkpointing on a pool, in-process daemons.  The
   values behind them are module-level, so the very first use must be
   safe from any domain.  Eight domains are released together from a
   barrier into [Checkpoint.crc32] and [Lease.fresh_id]; every one must
   get the right CRC and a well-formed id. *)

module Checkpoint = Repro_util.Checkpoint
module Lease = Repro_serve.Lease

let domains = 8

let test_first_use_from_many_domains () =
  let arrived = Atomic.make 0 in
  let first_use () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done;
    (Checkpoint.crc32_hex "123456789", Lease.fresh_id ())
  in
  let team = List.init domains (fun _ -> Domain.spawn first_use) in
  List.iter
    (fun (crc, id) ->
      Alcotest.(check string) "CRC-32 check value" "cbf43926" crc;
      Alcotest.(check bool) "lease id accepted" true
        (Result.is_ok (Lease.validate_id id)))
    (List.map Domain.join team)

let () =
  Alcotest.run "init-race"
    [
      ( "init-race",
        [
          Alcotest.test_case "first use from many domains" `Quick
            test_first_use_from_many_domains;
        ] );
    ]
