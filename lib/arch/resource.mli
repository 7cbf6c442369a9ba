(** Processing elements of the target architecture.

    The paper's object model has an abstract, polymorphic Resource
    class whose subclasses differ in the *execution order* they impose
    on the tasks assigned to them:

    - a programmable processor executes its tasks under a total order;
    - an ASIC executes them under a partial order (the task-graph
      precedences only);
    - a dynamically reconfigurable circuit executes a globally total
      order of contexts, each context executing its tasks under a
      partial order ("GTLP").

    We encode the same taxonomy as a variant; the scheduling substrate
    dispatches on it when inserting sequentialization edges. *)

type ordering = Total_order | Gtlp_order | Partial_order

type processor = {
  proc_name : string;
  proc_cost : float;
  proc_speed : float;
  (** relative speed: a task's execution time is its [sw_time] divided
      by this factor (1.0 = the reference processor the estimates were
      made on) *)
}

type reconfigurable = {
  rc_name : string;
  n_clb : int;                 (** total CLB capacity of the device *)
  reconfig_ms_per_clb : float; (** the paper's [tR] *)
  rc_cost : float;
}

type asic = { asic_name : string; asic_cost : float }

type t =
  | Processor of processor
  | Reconfigurable of reconfigurable
  | Asic of asic

val ordering : t -> ordering
(** Execution-order discipline of the resource. *)

val name : t -> string
val cost : t -> float

val reconfiguration_time : reconfigurable -> int -> float
(** [reconfiguration_time rc clbs] is the time to (re)configure [clbs]
    CLBs: [tR * clbs].  In the partial-reconfiguration model only the
    CLBs of the incoming context are counted. *)

val processor : ?cost:float -> ?speed:float -> string -> t
(** Raises [Invalid_argument] unless [speed] is finite and positive. *)

val reconfigurable :
  ?cost:float -> n_clb:int -> reconfig_ms_per_clb:float -> string -> t
(** Raises [Invalid_argument] unless [n_clb] is positive and
    [reconfig_ms_per_clb] (the paper's tR) finite and non-negative. *)

val asic : ?cost:float -> string -> t

val pp : Format.formatter -> t -> unit
