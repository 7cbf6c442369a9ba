(** Cooling schedules for simulated annealing.

    The paper's engine is an adaptive schedule in the line of Lam's
    thesis: the cooling speed is maximized subject to maintaining
    quasi-equilibrium, and is driven by statistical estimates (mean,
    variance, acceptance ratio) of the cost seen along the run.  We
    implement that schedule, the three-phase feedback approximation
    popularized by Swartz's place-and-route tools, and a classic
    geometric schedule for ablation.

    A {!t} is a stateless *factory*; each annealing run instantiates a
    fresh stateful {!instance}, so configurations can be stored and
    reused without runs contaminating one another. *)

type t
(** A schedule recipe. *)

type instance
(** Stateful realization driving one run.  Protocol: {!start} once with
    warmup statistics, then {!observe} after every Metropolis decision;
    {!temperature} is the current temperature (infinite before
    {!start}). *)

val name : t -> string
(** The recipe's family and fixed parameters, e.g.
    ["lam(quality 0.003, smoothing 0.02)"]: two recipes with the same
    name drive identical runs. *)

val instantiate : t -> instance

val temperature : instance -> float

val start : instance -> mean:float -> stddev:float -> horizon:int -> unit
(** [start i ~mean ~stddev ~horizon] initializes from the cost
    distribution sampled at infinite temperature; [horizon] is the
    number of iterations the schedule will drive. *)

val observe : instance -> cost:float -> accepted:bool -> unit

val capture : instance -> float array
(** Snapshot of the instance's mutable state for checkpointing.  The
    encoding is schedule-specific but always a flat float array; fixed
    construction parameters (weights, quality) are not included — a
    resume must instantiate from the same recipe. *)

val restore : instance -> float array -> unit
(** Overwrite the instance state with a {!capture} snapshot taken from
    an instance of the same recipe.  Raises [Invalid_argument] when the
    array length does not match the schedule's encoding. *)

val lam : ?quality:float -> ?smoothing:float -> unit -> t
(** Lam-style adaptive schedule.  The inverse temperature [s] grows by
    [ds = quality / sigma * (1 / (s^2 sigma^2)) * g(rho)] with
    [g(rho) = 4 rho (1-rho)^2 / (2-rho)^2], where [sigma] is the
    smoothed cost standard deviation and [rho] the smoothed acceptance
    ratio: fast cooling when acceptance is balanced, stalling when the
    system falls out of equilibrium (g vanishes at rho = 0 and
    rho = 1).  Smaller [quality] cools more slowly (better solutions,
    more iterations useful).  Defaults: [quality = 0.01],
    [smoothing = 0.02]. *)

val swartz : ?shrink:float -> unit -> t
(** Feedback approximation: a target acceptance-ratio curve (1.0
    exponentially down to 0.44 over the first 15% of the horizon, flat
    0.44 until 65%, exponential decay to ~0 afterwards); the
    temperature is multiplied or divided by [shrink] to track the
    target.  When [shrink] is omitted it is derived from the horizon so
    that steady shrinking spans ~8 decades of temperature over the
    run. *)

val geometric : ?alpha:float -> ?steps_per_level:int -> unit -> t
(** Classic schedule: [T <- alpha * T] every [steps_per_level]
    iterations (defaults 0.95 and 100). *)

val infinite : unit -> t
(** Always-infinite temperature (random walk); used for warmup and as a
    degenerate ablation. *)
