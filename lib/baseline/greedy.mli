(** Greedy compute-to-hardware baseline (in the spirit of Noguera &
    Badia's partitioning criticized in the paper's §2: "the tasks with
    the highest computational complexity are assigned to hardware with
    no regard to the global effect on the system").

    Tasks are ranked by software execution time; the heaviest fraction
    is mapped to hardware (smallest implementation), temporal
    partitioning is clustered deterministically, the schedule is list
    scheduling.  The engine sweeps the hardware fraction and keeps the
    best, giving the strongest version of this family. *)

open Repro_taskgraph
open Repro_arch
open Repro_sched

val with_fraction : App.t -> Platform.t -> float -> Searchgraph.spec
(** Map the heaviest [fraction] of the tasks to hardware. *)

val engine : Repro_dse.Engine.t
(** Registered as ["greedy"]; deterministic — a budget of [n]
    iterations evaluates [n] evenly spaced hardware fractions. *)
