type bus = { kb_per_ms : float; latency_ms : float }

type t = {
  name : string;
  processor : Resource.processor;
  rc : Resource.reconfigurable;
  extra : Resource.t list;
  bus : bus;
  procs : Resource.processor array;
}

let make ~name ~processor ~rc ?(extra = []) ~bus () =
  if bus.kb_per_ms <= 0.0 then invalid_arg "Platform.make: bus rate <= 0";
  if not (Float.is_finite bus.kb_per_ms) then
    invalid_arg "Platform.make: bus rate not finite";
  if bus.latency_ms < 0.0 then invalid_arg "Platform.make: negative latency";
  if not (Float.is_finite bus.latency_ms) then
    invalid_arg "Platform.make: latency not finite";
  match (processor, rc) with
  | Resource.Processor p, Resource.Reconfigurable r ->
    let extra_procs =
      List.filter_map
        (function
          | Resource.Processor q -> Some q
          | Resource.Reconfigurable _ | Resource.Asic _ -> None)
        extra
    in
    { name; processor = p; rc = r; extra; bus;
      procs = Array.of_list (p :: extra_procs) }
  | (Resource.Processor _ | Resource.Reconfigurable _ | Resource.Asic _), _ ->
    invalid_arg "Platform.make: needs a Processor and a Reconfigurable"

let processors t = Array.to_list t.procs

let processor_count t = Array.length t.procs

let processor_speed t k =
  if k < 0 || k >= Array.length t.procs then
    invalid_arg "Platform.processor_speed: no such processor";
  t.procs.(k).Resource.proc_speed

let transfer_time t kbytes =
  if kbytes < 0.0 then invalid_arg "Platform.transfer_time: negative amount";
  if kbytes = 0.0 then 0.0 else t.bus.latency_ms +. (kbytes /. t.bus.kb_per_ms)

let reconfiguration_time t clbs = Resource.reconfiguration_time t.rc clbs

let n_clb t = t.rc.Resource.n_clb

let with_rc_size t n_clb =
  if n_clb <= 0 then invalid_arg "Platform.with_rc_size: n_clb <= 0";
  { t with rc = { t.rc with Resource.n_clb } }

let total_cost t =
  t.processor.Resource.proc_cost +. t.rc.Resource.rc_cost
  +. List.fold_left (fun acc r -> acc +. Resource.cost r) 0.0 t.extra

let default_bus = { kb_per_ms = 400.0; latency_ms = 0.01 }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>platform %s:@,\
     - %a@,\
     - %a@,\
     - bus %.0f kB/ms, latency %.3f ms%a@]"
    t.name Resource.pp
    (Resource.Processor t.processor)
    Resource.pp
    (Resource.Reconfigurable t.rc)
    t.bus.kb_per_ms t.bus.latency_ms
    (fun fmt -> function
      | [] -> ()
      | extra ->
        List.iter (fun r -> Format.fprintf fmt "@,- %a" Resource.pp r) extra)
    t.extra
