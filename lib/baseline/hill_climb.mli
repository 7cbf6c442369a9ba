(** First-improvement hill climbing with random restarts, using the
    same move set as the annealer — the ablation isolating the value of
    accepting uphill moves. *)

val engine : Repro_dse.Engine.t
(** Registered as ["hill"]; one budget iteration = one proposed move,
    with a fresh random restart every 5000 moves. *)

val engine_with : ?moves_per_climb:int -> unit -> Repro_dse.Engine.t
(** The same engine with an explicit climb length (still named
    ["hill"]): a budget of [k * moves_per_climb] iterations runs [k]
    climbs. *)
