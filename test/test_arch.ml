open Repro_arch

let test_resource_taxonomy () =
  let proc = Resource.processor "cpu" in
  let rc = Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.01 "rc" in
  let asic = Resource.asic "hwacc" in
  Alcotest.(check bool) "processor is total order" true
    (Resource.ordering proc = Resource.Total_order);
  Alcotest.(check bool) "DRLC is GTLP" true
    (Resource.ordering rc = Resource.Gtlp_order);
  Alcotest.(check bool) "ASIC is partial order" true
    (Resource.ordering asic = Resource.Partial_order);
  Alcotest.(check string) "name" "cpu" (Resource.name proc);
  Alcotest.(check (float 1e-9)) "default cost" 1.0 (Resource.cost asic)

let test_resource_validation () =
  Alcotest.check_raises "bad n_clb"
    (Invalid_argument "Resource.reconfigurable: n_clb <= 0") (fun () ->
      ignore (Resource.reconfigurable ~n_clb:0 ~reconfig_ms_per_clb:0.01 "x"));
  Alcotest.check_raises "bad tR"
    (Invalid_argument "Resource.reconfigurable: negative tR") (fun () ->
      ignore (Resource.reconfigurable ~n_clb:10 ~reconfig_ms_per_clb:(-1.0) "x"))

(* NaN passes every [<= 0.0] / [< 0.0] test: each number the
   constructors take rejects all three non-finite values. *)
let test_non_finite_numbers () =
  let rejected expected f =
    Alcotest.check_raises expected (Invalid_argument expected) (fun () ->
        ignore (f ()))
  in
  let platform ?(kb_per_ms = 100.0) ?(latency_ms = 0.1) () =
    Platform.make ~name:"p" ~processor:(Resource.processor "cpu")
      ~rc:(Resource.reconfigurable ~n_clb:10 ~reconfig_ms_per_clb:0.01 "rc")
      ~bus:{ Platform.kb_per_ms; latency_ms } ()
  in
  let speed speed () = Resource.processor ~speed "cpu" in
  let tr reconfig_ms_per_clb () =
    Resource.reconfigurable ~n_clb:10 ~reconfig_ms_per_clb "rc"
  in
  rejected "Resource.processor: speed not finite" (speed nan);
  rejected "Resource.processor: speed not finite" (speed infinity);
  rejected "Resource.processor: speed <= 0" (speed neg_infinity);
  rejected "Resource.reconfigurable: tR not finite" (tr nan);
  rejected "Resource.reconfigurable: tR not finite" (tr infinity);
  rejected "Resource.reconfigurable: negative tR" (tr neg_infinity);
  rejected "Platform.make: bus rate not finite" (platform ~kb_per_ms:nan);
  rejected "Platform.make: bus rate not finite" (platform ~kb_per_ms:infinity);
  rejected "Platform.make: bus rate <= 0" (platform ~kb_per_ms:neg_infinity);
  rejected "Platform.make: latency not finite" (platform ~latency_ms:nan);
  rejected "Platform.make: latency not finite" (platform ~latency_ms:infinity);
  rejected "Platform.make: negative latency"
    (platform ~latency_ms:neg_infinity)

let test_reconfiguration_time () =
  match Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.0225 "rc" with
  | Resource.Reconfigurable rc ->
    Alcotest.(check (float 1e-9)) "linear in CLBs" 2.25
      (Resource.reconfiguration_time rc 100);
    Alcotest.(check (float 1e-9)) "zero CLBs" 0.0
      (Resource.reconfiguration_time rc 0);
    Alcotest.check_raises "negative area"
      (Invalid_argument "Resource.reconfiguration_time: negative area")
      (fun () -> ignore (Resource.reconfiguration_time rc (-1)))
  | Resource.Processor _ | Resource.Asic _ -> Alcotest.fail "built an RC"

let platform () =
  Platform.make ~name:"p"
    ~processor:(Resource.processor ~cost:10.0 "cpu")
    ~rc:(Resource.reconfigurable ~cost:20.0 ~n_clb:500 ~reconfig_ms_per_clb:0.01 "rc")
    ~bus:{ Platform.kb_per_ms = 100.0; latency_ms = 0.1 }
    ()

let test_platform_construction () =
  let p = platform () in
  Alcotest.(check int) "n_clb" 500 (Platform.n_clb p);
  Alcotest.(check (float 1e-9)) "total cost" 30.0 (Platform.total_cost p);
  Alcotest.check_raises "wrong resource kinds"
    (Invalid_argument "Platform.make: needs a Processor and a Reconfigurable")
    (fun () ->
      ignore
        (Platform.make ~name:"bad" ~processor:(Resource.asic "a")
           ~rc:(Resource.asic "b") ~bus:Platform.default_bus ()))

let test_transfer_time () =
  let p = platform () in
  Alcotest.(check (float 1e-9)) "latency + size/rate" 0.6
    (Platform.transfer_time p 50.0);
  Alcotest.(check (float 1e-9)) "zero transfer is free" 0.0
    (Platform.transfer_time p 0.0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Platform.transfer_time: negative amount") (fun () ->
      ignore (Platform.transfer_time p (-1.0)))

let test_with_rc_size () =
  let p = platform () in
  let bigger = Platform.with_rc_size p 1000 in
  Alcotest.(check int) "resized" 1000 (Platform.n_clb bigger);
  Alcotest.(check int) "original untouched" 500 (Platform.n_clb p);
  Alcotest.(check (float 1e-9)) "same tR" 0.01
    (Platform.reconfiguration_time bigger 1)

let test_platform_reconfiguration () =
  let p = platform () in
  Alcotest.(check (float 1e-9)) "delegates to the RC" 1.5
    (Platform.reconfiguration_time p 150)

let suite =
  [
    Alcotest.test_case "resource taxonomy" `Quick test_resource_taxonomy;
    Alcotest.test_case "resource validation" `Quick test_resource_validation;
    Alcotest.test_case "reconfiguration time" `Quick test_reconfiguration_time;
    Alcotest.test_case "platform construction" `Quick test_platform_construction;
    Alcotest.test_case "transfer time" `Quick test_transfer_time;
    Alcotest.test_case "with_rc_size" `Quick test_with_rc_size;
    Alcotest.test_case "platform reconfiguration" `Quick
      test_platform_reconfiguration;
    Alcotest.test_case "non-finite numbers" `Quick test_non_finite_numbers;
  ]
