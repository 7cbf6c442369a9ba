(** Tabu-search baseline.

    The paper motivates its adaptive annealing by contrast with methods
    that "require tuning, as one can find in tabu search (tabu list
    sizes)".  This baseline makes that contrast measurable: a
    steepest-descent tabu search over the same move space, with the
    tabu attribute being a hash of the full visited configuration.
    Its quality is indeed sensitive to [tenure] — the `compare`
    tooling can sweep it. *)

type config = {
  neighbourhood : int;    (** candidate moves sampled per iteration *)
  tenure : int;           (** applied moves a visited state stays tabu *)
  aspiration : bool;
  (** aspiration criterion, in its state-tabu form: a tabu candidate
      is admissible anyway when it strictly improves on the current
      working cost, so the search may backtrack to a strictly better
      configuration it is otherwise forbidden to revisit.  (The
      textbook better-than-best-known form is provably inert when the
      tabu attribute is the full visited state: any tabu candidate was
      visited, so the incumbent is already at most its cost.) *)
}

val default_config : config
(** 24 candidates, tenure 20, aspiration off (the historical
    behaviour). *)

(** Sliding-window tabu list with multiset semantics: remembering the
    same hash twice keeps it tabu until {e both} occurrences age out.
    Exposed for the eviction regression test. *)
module Tenure : sig
  type t

  val create : int -> t
  (** [create limit] remembers the last [limit] hashes. *)

  val remember : t -> int -> unit
  val is_tabu : t -> int -> bool

  val to_list : t -> int list
  (** The remembered hashes, oldest first; replaying them through
      {!remember} on a fresh window rebuilds an identical multiset
      (used by the checkpoint codec). *)
end

val engine : Repro_dse.Engine.t
(** Registered as ["tabu"]; one budget iteration = one neighbourhood
    sweep (24 sampled candidates) and at most one applied move. *)

val engine_with :
  ?neighbourhood:int -> ?tenure:int -> ?aspiration:bool -> unit ->
  Repro_dse.Engine.t
(** The same engine with explicit knobs (still named ["tabu"]); the
    tenure-ablation bench and the aspiration tests go through this. *)
