(** Periodic-execution (throughput) analysis.

    The paper's application processes an image every 40 ms: the
    constraint is a *period*.  The search graph gives the latency of
    one iteration; when iterations are pipelined, the achievable
    initiation interval is bounded below by the busiest resource —
    each processor's total software time; the reconfigurable circuit's
    total occupation (every reconfiguration — initial one included,
    since the context cycle repeats each period — plus each context's
    internal critical path, its tasks being partially ordered); each
    ASIC's critical path; and the shared bus's total transaction
    time.

    A mapping is periodically feasible at period T iff
    [min_initiation_interval <= T]; latency may exceed T when
    iterations overlap. *)

type resource_load = {
  resource : string;   (** "cpu0", "rc", "bus" *)
  busy : float;        (** total occupation per iteration, ms *)
}

type t = {
  loads : resource_load list;
  min_initiation_interval : float;  (** max over the loads *)
  bottleneck : string;
}

val analyze : Searchgraph.spec -> t
(** Resource-occupation analysis of a mapping (independent of schedule
    feasibility: pure sums over the assignment). *)
