(** Target architecture: processing elements communicating through a
    shared memory connected by a bus.

    The paper's experiments fix the platform to one programmable
    processor plus one partially reconfigurable FPGA; the model also
    supports several resources (and a component cost), which the
    exploration moves m3/m4 use when the architecture itself is
    explored. *)

type bus = {
  kb_per_ms : float;   (** transfer rate D, kilobytes per millisecond *)
  latency_ms : float;  (** fixed per-transaction latency *)
}

type t = private {
  name : string;
  processor : Resource.processor;       (** the (first) processor *)
  rc : Resource.reconfigurable;         (** the (first) DRLC *)
  extra : Resource.t list;              (** further PEs, exploration mode *)
  bus : bus;
  procs : Resource.processor array;
  (** [processor] then the [Processor] entries of [extra]: built once
      by {!make}, read by {!processor_count} and {!processor_speed} on
      the move path *)
}

val make :
  name:string -> processor:Resource.t -> rc:Resource.t ->
  ?extra:Resource.t list -> bus:bus -> unit -> t
(** Requires [processor] to be a [Processor], [rc] a [Reconfigurable],
    a finite positive bus rate and a finite non-negative latency;
    raises [Invalid_argument] otherwise. *)

val processors : t -> Resource.processor list
(** All programmable processors of the platform: the primary one
    followed by any [Processor] entries of [extra], in order.  Tasks
    bound to software are scheduled on one of these. *)

val processor_count : t -> int

val processor_speed : t -> int -> float
(** Relative speed of the k-th processor (0-based); raises
    [Invalid_argument] for an unknown index. *)

val transfer_time : t -> float -> float
(** [transfer_time p kbytes] is the bus time of one transaction:
    [latency + kbytes / rate].  The paper's [tij] estimated from the
    size [qij] and the bus transfer rate D. *)

val reconfiguration_time : t -> int -> float
(** Reconfiguration time of [clbs] CLBs on the platform's DRLC. *)

val n_clb : t -> int
val with_rc_size : t -> int -> t
(** Same platform with a DRLC of a different capacity (the Fig. 3
    device-size sweep). *)

val total_cost : t -> float
(** Sum of component costs (architecture-exploration objective). *)

val default_bus : bus
(** 400 kB/ms (~400 MB/s) with 0.01 ms latency — the order of magnitude
    of an AMBA-class SoC bus. *)

val pp : Format.formatter -> t -> unit
