(** Deterministic discrete-event execution engine.

    An engine owns the virtual clock, the event queue and the channel
    model.  Processes are identified by integers [0 .. n-1].  Two kinds of
    events exist: message deliveries (created by {!send} through the
    network model) and scheduled actions (arbitrary closures, used for
    workload timers, basic-checkpoint timers and fault injection).

    Simultaneous events are ordered by canonical keys that are pure
    functions of the simulation (destination or pinned process, and
    per-channel or per-process counters) rather than by insertion order:
    at one timestamp, deliveries and pinned actions come process by
    process, and unpinned actions after all of them.  A simulation is
    therefore a pure function of [(seed, config)].  Steady-state dispatch
    allocates nothing beyond the queue-head time it reads, which boxes
    where the build does not inline across modules.

    Processes can be marked down ({!set_up}); deliveries addressed to a
    down process are silently discarded, which models the crash semantics
    of the paper (volatile state lost, no processing while down).  Pinned
    actions still fire; a handler that must not run while its process is
    down checks {!is_up}.  {!flush_in_flight} drops every message
    currently in transit, which a centralized recovery session uses to
    discard in-transit messages (the paper's CCP excludes lost and
    in-transit messages). *)

type 'msg t

type stats = {
  mutable sent : int;  (** messages handed to {!send} *)
  mutable delivered : int;  (** deliveries executed *)
  mutable lost : int;  (** dropped by the channel loss model *)
  mutable dropped_down : int;  (** arrived while the destination was down *)
  mutable flushed : int;  (** discarded by {!flush_in_flight} *)
  mutable events : int;  (** total events executed *)
}

val create : n:int -> seed:int -> net:Network.config -> unit -> 'msg t

val now : _ t -> float
(** Current virtual time: inside an event handler, the event's
    timestamp. *)

val rng : _ t -> Prng.t
(** The engine's root generator; split it rather than drawing directly if
    you need an independent stream. *)

val set_receiver : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** [set_receiver t p f] installs the delivery callback of process [p].
    Must be called for every process before the first delivery. *)

val send : 'msg t -> ?reliable:bool -> src:int -> dst:int -> 'msg -> unit
(** Transmit a message through the channel model.  Delivery (if the message
    is not lost) happens at a later virtual time, via the receiver
    callback of [dst].  [?reliable] (default [false]) bypasses the loss
    model — used for the control messages of coordinated GC baselines,
    which assume reliable channels (the paper's point of contrast). *)

val schedule : 'msg t -> ?pin:int -> at:float -> (unit -> unit) -> unit
(** [schedule t ?pin ~at f] runs [f] at virtual time [at].  [pin] files
    the action under that process: it sorts among the process's events of
    the same timestamp, and fires even while the process is down (timers
    re-arm there, guarded by {!is_up}).  Without [pin] the action runs
    after every event of its timestamp that names a process.
    [at] must not precede the current time. *)

val schedule_in : 'msg t -> ?pin:int -> delay:float -> (unit -> unit) -> unit
(** Convenience wrapper: {!schedule} at [now + delay]. *)

val is_up : _ t -> int -> bool

val set_up : _ t -> int -> bool -> unit

val flush_in_flight : _ t -> unit
(** Drop every message currently in transit and reset FIFO channel order. *)

val step : _ t -> bool
(** Execute the next event.  Returns [false] if nothing was left. *)

val run : ?until:float -> _ t -> unit
(** Execute events until the queue is empty or the next event is strictly
    after [until].  When stopped by [until], the clock is advanced to
    [until]. *)

val stats : _ t -> stats
(** The counters so far (a fresh record; mutating it does not affect the
    engine). *)
