(** Priority queue of timed events for the discrete-event engine.

    Events are ordered by timestamp, and ties by a caller-supplied
    canonical key [(u, v)] that must be unique among the queued entries:
    two entries with equal times and keys pop in an unspecified order.
    The engine's keys are unique for the whole run, which makes the order
    of simultaneous events a function of the simulation, not of the order
    in which its handlers happened to insert them.  There is no
    cancellation: an added event fires.

    The heap is stored as flat parallel arrays (times unboxed), so once
    they have grown to the queue's working size, neither scheduling nor
    {!pop} allocates.  Array slots past the live entries keep the values
    last moved through them until reused, and the arrays never shrink: a
    queue that once held [k] events keeps O(k) stale values reachable — a
    deliberate trade-off for an allocation-free simulator hot path. *)

type 'a t

val create : unit -> 'a t

val add_keyed : 'a t -> time:float -> u:int -> v:int -> 'a -> unit
(** [add_keyed q ~time ~u ~v x] schedules [x] at [time] with the
    canonical tie-break key [(u, v)]: entries at equal [time] order by
    [(u, v)] lexicographically.  The key must differ from every queued
    entry's. *)

val next_time : 'a t -> float
(** Timestamp of the earliest entry, or [infinity] when the queue is
    empty.  Small enough to inline across modules; where it is called out
    of line its float result is boxed. *)

val pop : 'a t -> 'a
(** Removes the earliest entry and returns its value; its timestamp is
    what {!next_time} reported just before.
    @raise Invalid_argument if the queue is empty. *)

val is_empty : 'a t -> bool
