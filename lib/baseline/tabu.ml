module Solution = Repro_dse.Solution
module Moves = Repro_dse.Moves
module Engine = Repro_dse.Engine
module Rng = Repro_util.Rng

type config = { neighbourhood : int; tenure : int; aspiration : bool }

let default_config = { neighbourhood = 24; tenure = 20; aspiration = false }

(* The tabu list is a multiset: the same state hash can legitimately be
   remembered twice within one tenure window (the search can revisit a
   configuration through a different move).  [Hashtbl.add] gives one
   binding per remembered occurrence and [Hashtbl.remove] drops exactly
   one, so evicting the older occurrence leaves the newer one tabu.
   (The previous [Hashtbl.replace]-based version collapsed duplicates
   into a single binding, so evicting the old copy un-tabooed a state
   that was still within tenure.) *)
module Tenure = struct
  type t = {
    limit : int;
    table : (int, unit) Hashtbl.t;
    order : int Queue.t;
  }

  let create limit =
    if limit < 0 then invalid_arg "Tabu.Tenure.create: negative tenure";
    { limit; table = Hashtbl.create 64; order = Queue.create () }

  let remember t hash =
    Hashtbl.add t.table hash ();
    Queue.add hash t.order;
    if Queue.length t.order > t.limit then
      Hashtbl.remove t.table (Queue.pop t.order)

  let is_tabu t hash = Hashtbl.mem t.table hash

  (* Oldest first, i.e. the order [remember] was called in; replaying
     the list through [remember] on a fresh window rebuilds an
     identical multiset (the list is at most [limit] long, so the
     replay never evicts). *)
  let to_list t = List.of_seq (Queue.to_seq t.order)
end

(* State-hash tabu: a candidate is tabu when its full configuration was
   visited within the last [tenure] applied moves. *)
let state_hash solution =
  let n = Solution.size solution in
  let acc = ref 0 in
  let mix x = acc := (!acc * 1_000_003) lxor x in
  for v = 0 to n - 1 do
    (match Solution.binding solution v with
     | Repro_sched.Searchgraph.Sw ->
       mix (-1 - Solution.processor_index solution v)
     | Repro_sched.Searchgraph.Hw j -> mix (1000 + j)
     | Repro_sched.Searchgraph.On_asic a -> mix (2000 + a));
    mix (Solution.impl_index solution v)
  done;
  List.iter (fun order -> List.iter mix order) (Solution.sw_orders solution);
  List.iter (fun members -> List.iter mix members; mix (-7))
    (Solution.contexts solution);
  !acc

(* One iteration = one neighbourhood sweep plus (when some candidate is
   admissible — not tabu, or tabu but beating the global best when the
   aspiration criterion is on — and feasible) one applied move. *)
let engine_start ?payload ~neighbourhood ~tenure ~aspiration
    (ctx : Engine.context) =
  if neighbourhood < 1 then invalid_arg "Tabu: neighbourhood < 1";
  let app = ctx.Engine.app and platform = ctx.Engine.platform in
  let tabu = Tenure.create tenure in
  let current = ref infinity in
  let incumbent = ref infinity in
  let codec =
    {
      Engine.engine = "tabu";
      version = 1;
      encode =
        (fun solution ->
          let b = Buffer.create 512 in
          Printf.bprintf b "knobs %d %d %d\n" neighbourhood tenure
            (Bool.to_int aspiration);
          Printf.bprintf b "current %h\n" !current;
          Printf.bprintf b "incumbent %h\n" !incumbent;
          Buffer.add_string b "window";
          List.iter (fun h -> Printf.bprintf b " %d" h) (Tenure.to_list tabu);
          Buffer.add_char b '\n';
          Buffer.add_string b (Solution.encode solution);
          Buffer.contents b);
      decode =
        (fun text ->
          let ( let* ) = Result.bind in
          let take tag = function
            | [] -> Error (Printf.sprintf "missing %s line" tag)
            | line :: rest -> (
              match String.split_on_char ' ' line with
              | t :: fields when t = tag -> Ok (fields, rest)
              | _ -> Error (Printf.sprintf "expected a %s line" tag))
          in
          let lines = String.split_on_char '\n' text in
          let* fields, lines = take "knobs" lines in
          let* () =
            match List.map int_of_string_opt fields with
            | [ Some n; Some t; Some a ] ->
              if (n, t, a) <> (neighbourhood, tenure, Bool.to_int aspiration)
              then
                Error
                  (Printf.sprintf
                     "taken with neighbourhood %d, tenure %d, aspiration %s \
                      — this engine is configured differently"
                     n t
                     (if a <> 0 then "on" else "off"))
              else Ok ()
            | _ -> Error "bad knobs line"
          in
          let* fields, lines = take "current" lines in
          let* current' =
            match List.map float_of_string_opt fields with
            | [ Some c ] -> Ok c
            | _ -> Error "bad current line"
          in
          let* fields, lines = take "incumbent" lines in
          let* incumbent' =
            match List.map float_of_string_opt fields with
            | [ Some c ] -> Ok c
            | _ -> Error "bad incumbent line"
          in
          let* fields, lines = take "window" lines in
          let* hashes =
            let parsed = List.map int_of_string_opt fields in
            if List.for_all Option.is_some parsed then
              Ok (List.map Option.get parsed)
            else Error "bad window line"
          in
          let* solution =
            Solution.decode app platform (String.concat "\n" lines)
          in
          current := current';
          incumbent := incumbent';
          Hashtbl.reset tabu.Tenure.table;
          Queue.clear tabu.Tenure.order;
          List.iter (Tenure.remember tabu) hashes;
          Ok solution);
    }
  in
  Engine.drive ?payload ~codec ctx
    ~init:(fun rng ->
      let solution =
        match ctx.Engine.warm_start with
        | Some w -> Solution.copy w
        | None -> Solution.random (Rng.split rng) app platform
      in
      let cost = Solution.makespan solution in
      current := cost;
      incumbent := cost;
      Tenure.remember tabu (state_hash solution);
      (solution, cost, 1))
    ~step:(fun rng ~iteration:_ solution ->
      (* Sample the neighbourhood: each candidate draws its move from a
         dedicated stream so the winner can be replayed exactly. *)
      let evals = ref 0 in
      let best_candidate = ref None in
      for _ = 1 to neighbourhood do
        let stream = Rng.split rng in
        match
          Moves.propose (Rng.copy stream) Moves.fixed_architecture solution
        with
        | None -> ()
        | Some undo ->
          incr evals;
          let cost = Solution.makespan solution in
          let hash = state_hash solution in
          undo ();
          (* Aspiration, in its state-tabu form: a tabu candidate is
             re-admitted when it strictly improves on the current
             working cost, i.e. the search may backtrack to a strictly
             better configuration it is otherwise forbidden to revisit.
             (The textbook better-than-best-known criterion is provably
             inert under visited-state hashing: any tabu state was
             visited, so the incumbent is already <= its cost.) *)
          let admissible =
            (not (Tenure.is_tabu tabu hash))
            || (aspiration && cost < !current)
          in
          if admissible then begin
            match !best_candidate with
            | Some (previous_cost, _, _) when previous_cost <= cost -> ()
            | Some _ | None -> best_candidate := Some (cost, stream, hash)
          end
      done;
      match !best_candidate with
      | None ->
        (* Whole neighbourhood tabu or infeasible: stall. *)
        { Engine.state = solution; cost = !current; accepted = false;
          evaluations = !evals }
      | Some (cost, stream, hash) ->
        (match Moves.propose stream Moves.fixed_architecture solution with
         | Some _ -> ()
         | None -> assert false (* same stream, same (feasible) move *));
        Tenure.remember tabu hash;
        current := cost;
        if cost < !incumbent then incumbent := cost;
        { Engine.state = solution; cost; accepted = true;
          evaluations = !evals })
    ~snapshot:Solution.copy

let engine_with ?(neighbourhood = default_config.neighbourhood)
    ?(tenure = default_config.tenure)
    ?(aspiration = default_config.aspiration) () : Engine.t =
  (module struct
    let name = "tabu"
    let describe = "steepest-descent tabu search over visited-state hashes"

    let knobs =
      Printf.sprintf
        "neighbourhood %d, tenure %d, aspiration %s; one iteration = one \
         neighbourhood sweep and at most one applied move"
        neighbourhood tenure
        (if aspiration then "on" else "off")

    let default_iterations = 4_000
    let start ?payload ctx =
      engine_start ?payload ~neighbourhood ~tenure ~aspiration ctx
  end : Engine.S)

let engine : Engine.t = engine_with ()
