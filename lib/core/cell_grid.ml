type 'a checkpoint = {
  path : string;
  kind : string;
  fingerprint : string;
  encode : 'a -> string;
  decode : string -> 'a;
}

let fail fmt = Printf.ksprintf failwith fmt

let load ck =
  let table = Hashtbl.create 64 in
  (if Sys.file_exists ck.path then
     match Repro_util.Checkpoint.load ck.path ~kind:ck.kind with
     | Error msg -> failwith msg
     | Ok payload -> (
       match String.split_on_char '\n' payload with
       | fp :: lines when fp = ck.fingerprint ->
         List.iter
           (fun line ->
             match String.index_opt line '\t' with
             | _ when line = "" -> ()
             | None -> fail "%s: malformed checkpoint cell" ck.path
             | Some tab -> (
               match int_of_string_opt (String.sub line 0 tab) with
               | None -> fail "%s: malformed checkpoint cell index" ck.path
               | Some index ->
                 Hashtbl.replace table index
                   (ck.decode (String.sub line (tab + 1)
                                 (String.length line - tab - 1)))))
           lines
       | _ ->
         fail "%s: checkpoint was produced under different campaign parameters"
           ck.path));
  table

let save ck table =
  Hashtbl.to_seq_keys table |> List.of_seq |> List.sort compare
  |> List.map (fun i ->
         Printf.sprintf "%d\t%s\n" i (ck.encode (Hashtbl.find table i)))
  |> String.concat "" |> ( ^ ) (ck.fingerprint ^ "\n")
  |> Repro_util.Checkpoint.save ck.path ~kind:ck.kind

let run ?checkpoint ?cell_timeout ~jobs ~should_stop n cell =
  let completed = Option.fold ~none:(Hashtbl.create 64) ~some:load checkpoint in
  let pending =
    List.init n Fun.id
    |> List.filter (fun i -> not (Hashtbl.mem completed i))
    |> Array.of_list
  in
  let lock = Mutex.create () in
  let save_failure = ref None in
  let file index value =
    Mutex.lock lock;
    Hashtbl.replace completed index value;
    (match checkpoint with
     | Some ck ->
       (try save ck completed
        with exn ->
          if Option.is_none !save_failure then save_failure := Some exn)
     | None -> ());
    Mutex.unlock lock
  in
  let outcomes =
    Repro_util.Parallel.map_outcomes ~jobs ?timeout:cell_timeout ~should_stop
      (Array.length pending)
      (fun j ~stop ->
        let value, status = cell pending.(j) ~stop in
        (* An interrupted search under a global stop was cut short by
           it; under no global stop its own deadline ended it, and the
           best-so-far is kept. *)
        if status = Engine.Complete || not (should_stop ()) then
          file pending.(j) value)
  in
  Option.iter raise !save_failure;
  let warnings = ref [] in
  let warn index msg = warnings := (index, msg) :: !warnings in
  let interrupted = ref false in
  Array.iteri
    (fun j outcome ->
      let index = pending.(j) in
      match outcome with
      | Repro_util.Parallel.Skipped -> interrupted := true
      | Repro_util.Parallel.(Done () | Timed_out (Some ()))
        when not (Hashtbl.mem completed index) ->
        interrupted := true
      | Repro_util.Parallel.Done () -> ()
      | Repro_util.Parallel.Timed_out (Some ()) ->
        warn index "timed out (best-so-far kept)"
      | Repro_util.Parallel.Timed_out None ->
        warn index "timed out with nothing to salvage; dropped"
      | Repro_util.Parallel.Failed { error; _ } -> warn index ("failed: " ^ error))
    outcomes;
  if !interrupted then `Interrupted (Hashtbl.length completed, n)
  else
    `Complete
      ( Array.init n (Hashtbl.find_opt completed),
        List.sort compare !warnings )
