(** Deterministic pseudo-random number generation.

    The exploration tool, the baselines and the experiment harness all
    take an explicit generator so that every run is reproducible from a
    seed.  The generator is xoshiro256** seeded through SplitMix64, a
    standard high-quality non-cryptographic combination. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a seed.  Equal seeds give
    equal streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val state : t -> int64 array
(** The four xoshiro256** state words, for checkpointing. *)

val of_state : int64 array -> t
(** Rebuild a generator from {!state}.  The stream continues exactly
    where the captured generator stood.  Raises [Invalid_argument] on a
    wrong length or the (unreachable) all-zero state. *)

val split : t -> t
(** [split t] draws from [t] to seed a fresh, statistically independent
    generator; useful to give sub-components their own streams. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] is uniform in \[0, n).  Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in \[0, x). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val select_into : t -> int array -> int array -> int array -> unit
(** [select_into t a b dst] sets [dst.(i)] to [a.(i)] if {!bool} [t]
    is [true], else to [b.(i)], for ascending [i]: the draws of that
    loop in its order, with the generator state loaded and stored once.
    [dst] may be [a] or [b].  Raises [Invalid_argument] unless the
    three arrays have equal lengths. *)

val select_bools_into : t -> bool array -> bool array -> bool array -> unit
(** {!select_into} on arrays of booleans. *)

val first_below : t -> float -> from:int -> until:int -> int
(** [first_below t p ~from ~until] draws [float t 1.0] for the indices
    [from], [from + 1], ... below [until] and returns the index of the
    first draw below [p], stopping after that draw.  It returns [until]
    when no draw is below [p], after [until - from] draws, none when
    [from >= until].  The draws are those of {!bernoulli} [t p] at each
    index, with the generator state loaded and stored once. *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choice_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val pick_weighted : t -> (float * 'a) list -> 'a
(** [pick_weighted t choices] draws an element with probability
    proportional to its weight.  Weights must be non-negative with a
    positive sum. *)
