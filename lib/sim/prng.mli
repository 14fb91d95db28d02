(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the simulator flows through a [Prng.t]
    seeded explicitly, so that a simulation is a pure function of its
    configuration.  The generator is splittable: independent sub-streams can
    be derived for sub-components (per-process workloads, the network, fault
    injection) so that adding randomness consumption to one component does
    not perturb the others. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator deterministically derived from
    [seed]. *)

val mix : int64 -> int64
(** The stateless splitmix64 finalizer: a high-quality 64-bit mixing
    function.  Exposed for keyed hashing — components that need a
    decision to be a pure function of some tuple of ints (the transport
    nemesis's per-frame fault schedule) chain [mix] over the fields
    instead of threading generator state. *)

val split : t -> t
(** [split t] derives an independent generator.  The state of [t] advances,
    but the returned stream is statistically independent from the values
    subsequently drawn from [t]. *)

val split_at : t -> index:int -> t
(** [split_at t ~index] derives the [index]-th child generator of [t]'s
    current state {e without} advancing [t]: the result is a pure function
    of [(state, index)], so [split_at t ~index:i] called twice (with no
    draws from [t] in between) returns identical streams, and distinct
    indices give statistically independent streams.  The network and the
    workload derive per-process streams this way, so one process's draws
    never perturb another's, whatever order the components consume them
    in.  [index] must be non-negative. *)

val bits64 : t -> int64
(** Next raw 64-bit output of the underlying splitmix64 stream. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [\[0, bound)].  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] draws a uniform float in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed positive float with the given mean; used for
    Poisson message/checkpoint processes. *)

val uniform_in : t -> lo:float -> hi:float -> float
(** Uniform float in [\[lo, hi)]. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
