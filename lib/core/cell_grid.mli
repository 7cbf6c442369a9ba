(** The campaign runner of [dse-sweep] and [dse-compare]: an indexed
    grid of cells, each a pure function of its index, run in one
    supervised pool call and checkpointed per cell.  The store is a
    {!Repro_util.Checkpoint} payload: a fingerprint line (the campaign
    parameters), then one ["<index>\t<encoded>"] line per finished
    cell, so a rerun with the same flags skips them. *)

type 'a checkpoint = {
  path : string;
  kind : string;
  fingerprint : string;
  encode : 'a -> string;  (** single line, may contain tabs *)
  decode : string -> 'a;
}

val load : 'a checkpoint -> (int, 'a) Hashtbl.t
(** The cells in [ck.path] (none when it does not exist).  Raises
    [Failure] with one line naming the file on a damaged store, a
    malformed cell or another fingerprint. *)

val run :
  ?checkpoint:'a checkpoint -> ?cell_timeout:float -> jobs:int ->
  should_stop:(unit -> bool) -> int ->
  (int -> stop:(unit -> bool) -> 'a * Engine.status) ->
  [ `Complete of 'a option array * (int * string) list
  | `Interrupted of int * int ]
(** [run ~jobs ~should_stop n cell] runs the cells not yet stored in
    one {!Repro_util.Parallel.map_outcomes} call, filing each into the
    table and checkpoint under a mutex as it finishes.  A cell the stop
    cut short ([Interrupted] while [should_stop] holds) or left
    unstarted is not filed, and the run is [`Interrupted (filed, n)].
    Otherwise [`Complete] has an option per cell (None = lost) and the
    index-ordered warnings: a raising or timed-out cell is a warning,
    not an abort, and a timed-out cell's best-so-far is kept.  A failed
    checkpoint write is re-raised once the pool has drained. *)
