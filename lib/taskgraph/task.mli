(** Application tasks (coarse-grain graph nodes).

    Each task carries the paper's node characterization: a
    functionality label, an estimated software execution time [tsw] on
    the processor, and a set of hardware implementations — Pareto
    points in the area (CLB) / time domain, of which the explorer
    selects one when the task is mapped to the reconfigurable
    circuit. *)

type impl = { clbs : int;       (** CLBs occupied by this variant *)
              hw_time : float;  (** execution time of this variant, ms *) }

type t = {
  id : int;              (** index in the application, 0-based *)
  name : string;
  functionality : string;  (** e.g. "FFT", "Erosion" — groups tasks that
                               share synthesis results *)
  sw_time : float;       (** execution time on the processor, ms *)
  impls : impl array;    (** non-empty, sorted by increasing [clbs] *)
}

val make :
  id:int -> name:string -> functionality:string -> sw_time:float ->
  impls:impl list -> t
(** Validates and normalizes: positive finite times (NaN and the
    infinities are rejected), at least one
    implementation, implementations sorted by area.  Raises
    [Invalid_argument] on violation. *)

val impl_count : t -> int
val impl : t -> int -> impl
(** [impl t k] is the k-th (area-sorted) implementation. *)

val smallest_impl : t -> impl
val fastest_impl : t -> impl

val is_pareto : impl list -> bool
(** Whether no implementation is dominated (another with [<=] area and
    [<=] time, one strict). *)

val pareto_filter : impl list -> impl list
(** Keeps only dominant points, sorted by increasing area. *)

val best_speedup : t -> float
(** [sw_time / fastest hw time]; 1.0 means hardware never helps. *)

val pp : Format.formatter -> t -> unit
