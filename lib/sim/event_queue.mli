(** Priority queue of timed events for the discrete-event engine.

    Events are ordered by timestamp; ties are broken first by an optional
    caller-supplied canonical key [(u, v)] ({!add_keyed}), then by a
    monotonically increasing sequence number assigned at insertion.  The
    plain {!add} entry point uses [u = v = 0], so its ties resolve in
    insertion order.  The engine keys every event, which makes the order
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

val add : 'a t -> time:float -> 'a -> unit
(** [add q ~time v] schedules [v] at [time]. *)

val add_keyed : 'a t -> time:float -> u:int -> v:int -> 'a -> unit
(** [add_keyed q ~time ~u ~v x] schedules [x] with an explicit canonical
    tie-break key: entries at equal [time] order by [(u, v)]
    lexicographically (before falling back to insertion order). *)

val next_time : 'a t -> float
(** Timestamp of the earliest entry, or [infinity] when the queue is
    empty.  Small enough to inline across modules; where it is called out
    of line its float result is boxed. *)

val pop : 'a t -> 'a
(** Removes the earliest entry and returns its value; its timestamp is
    what {!next_time} reported just before.
    @raise Invalid_argument if the queue is empty. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
