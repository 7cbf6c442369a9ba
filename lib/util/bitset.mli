(** Fixed-capacity bitsets over \[0, capacity), packed into ints.

    Backing store for the transitive-closure matrix used to reject
    cyclic moves in O(1) per query. *)

type t

val create : int -> t
(** [create capacity] is the empty set over \[0, capacity). *)

val capacity : t -> int
val copy : t -> t
val clear : t -> unit

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val cardinal : t -> int

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src].  Capacities must be
    equal. *)

val equal : t -> t -> bool
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int -> int list -> t
