open Repro_taskgraph
open Repro_arch

type resource_load = { resource : string; busy : float }

type t = {
  loads : resource_load list;
  min_initiation_interval : float;
  bottleneck : string;
}

(* Minimal residency of one context: its tasks may execute
   concurrently (partial order), so the context occupies the device for
   at least the critical path of its members under the application
   precedences. *)
let context_span spec members =
  let app = spec.Searchgraph.app in
  let inside = Array.make (App.size app) false in
  List.iter (fun v -> inside.(v) <- true) members;
  let ins = App.in_edges app and finish = Array.make (App.size app) 0.0 in
  Array.iter
    (fun v ->
      if inside.(v) then begin
        for k = ins.start.(v) to ins.start.(v + 1) - 1 do
          if inside.(ins.node.(k)) then
            finish.(v) <- Float.max finish.(v) finish.(ins.node.(k))
        done;
        finish.(v) <- finish.(v) +. Searchgraph.exec_time spec v
      end)
    (App.topo app);
  List.fold_left (fun acc v -> Float.max acc finish.(v)) 0.0 members

let analyze spec =
  let n = App.size spec.Searchgraph.app in
  let processors = Platform.processor_count spec.Searchgraph.platform in
  let processor_busy = Array.make processors 0.0 in
  let rc_busy = ref 0.0 in
  let asic_busy = Hashtbl.create 4 in
  for v = 0 to n - 1 do
    let duration = Searchgraph.exec_time spec v in
    match spec.Searchgraph.binding v with
    | Searchgraph.Sw ->
      let p = spec.Searchgraph.proc_of v in
      processor_busy.(p) <- processor_busy.(p) +. duration
    | Searchgraph.Hw _ -> ignore duration (* counted per context below *)
    | Searchgraph.On_asic a ->
      let members =
        match Hashtbl.find_opt asic_busy a with Some m -> m | None -> []
      in
      Hashtbl.replace asic_busy a (v :: members)
  done;
  (* In steady state the whole context cycle (initial configuration
     included) repeats every period; each context occupies the device
     for its configuration plus at least its internal critical path. *)
  List.iter
    (fun members ->
      rc_busy :=
        !rc_busy
        +. Platform.reconfiguration_time spec.Searchgraph.platform
             (Searchgraph.context_clbs spec members)
        +. context_span spec members)
    spec.Searchgraph.contexts;
  let bus_busy =
    Array.fold_left ( +. ) 0.0
      (Searchgraph.comm_terms ~platform:spec.Searchgraph.platform
         ~app:spec.Searchgraph.app ~crossing:(Searchgraph.crossing spec))
  in
  let loads =
    List.init processors (fun p ->
        { resource = Printf.sprintf "cpu%d" p; busy = processor_busy.(p) })
    @ [ { resource = "rc"; busy = !rc_busy };
        { resource = "bus"; busy = bus_busy } ]
    @ Hashtbl.fold
        (fun a members acc ->
          (* Like a context: the ASIC executes its tasks under a
             partial order, so it is held for their critical path. *)
          { resource = Printf.sprintf "asic%d" a;
            busy = context_span spec members }
          :: acc)
        asic_busy []
  in
  let bottleneck_load =
    List.fold_left
      (fun best load -> if load.busy > best.busy then load else best)
      { resource = "none"; busy = 0.0 }
      loads
  in
  {
    loads;
    min_initiation_interval = bottleneck_load.busy;
    bottleneck = bottleneck_load.resource;
  }
