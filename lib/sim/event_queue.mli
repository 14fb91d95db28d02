(** Priority queue of timed events for the discrete-event engine.

    Events are ordered by timestamp; ties are broken first by an optional
    caller-supplied canonical key [(u, v)] ({!add_keyed}), then by a
    monotonically increasing sequence number assigned at insertion.  The
    plain {!add} entry point uses [u = v = 0], so its ties resolve in
    insertion order; the sharded engine uses {!add_keyed} with
    interleaving-independent keys so that the order of simultaneous events
    does not depend on which shard inserted first.  There is no
    cancellation: an added event fires.

    The heap is stored as flat parallel arrays (times unboxed), so once
    they have grown to the queue's working size, neither scheduling nor
    {!pop} allocates.  Array slots past the live entries keep the values
    last moved through them until reused, and the arrays never shrink: a
    queue that once held [k] events keeps O(k) stale values reachable — a
    deliberate trade-off for an allocation-free simulator hot path. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> time:float -> 'a -> unit
(** [add q ~time v] schedules [v] at [time]. *)

val add_keyed : 'a t -> time:float -> u:int -> v:int -> 'a -> unit
(** [add_keyed q ~time ~u ~v x] schedules [x] with an explicit canonical
    tie-break key: entries at equal [time] order by [(u, v)]
    lexicographically (before falling back to insertion order).  Keys are
    how the sharded engine makes simultaneous-event order independent of
    insertion interleaving. *)

val next_time : 'a t -> float
(** Timestamp of the earliest entry, or [infinity] when the queue is
    empty.  Small enough to inline across modules; where it is called out
    of line its float result is boxed. *)

val pop : 'a t -> 'a
(** Removes the earliest entry and returns its value; its timestamp is
    what {!next_time} reported just before.
    @raise Invalid_argument if the queue is empty. *)

val last_u : 'a t -> int
val last_v : 'a t -> int
(** Canonical key of the entry most recently removed by {!pop} — exposed
    as queue state so the engine's hot loop reads it without a boxed
    result.  Meaningless before the first pop. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
