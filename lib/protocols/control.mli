(** Control information piggybacked on application messages.

    All the protocols in this library fit in one record: the dependency
    vector (used by every RDT protocol here and by RDT-LGC) and a scalar
    logical index (used by the index-based BCS protocol; zero elsewhere).
    Keeping a single concrete type lets protocols be swapped at run time
    without existential plumbing; the per-message control size reported by
    the metrics accounts only for the fields a protocol actually reads.

    Borrow contract: a receiver ({!Middleware.receive} and, through it,
    {!Protocol.instance.need_forced} and
    {!Protocol.instance.note_receive}) borrows an incoming control only
    for the duration of the call — it reads [dv] and [index] and keeps no
    reference to either once it returns.  The simulator relies on this to
    recycle a delivered message's [dv] buffer for a later send
    ([make ~into]).  Anything that keeps or duplicates an in-flight
    message (the scenario scripts, the live runtime, a nemesis that
    duplicates frames) copies into a fresh array instead. *)

type t = {
  dv : int array;  (** sender's dependency vector at send time *)
  index : int;  (** sender's logical checkpoint index (BCS) *)
}

val make : ?into:int array -> dv:int array -> index:int -> unit -> t
(** Owning constructor: copies [dv], so the control survives any later
    mutation of the sender's vector — what a message in flight needs.  The
    copy goes into [into] when given (the control then owns that buffer;
    the caller must not touch it until the message has been received), or
    into a fresh array.
    @raise Invalid_argument if [into]'s length differs from [dv]'s. *)

val borrow : dv:int array -> index:int -> t
(** No-copy constructor for controls that are consumed synchronously
    (receiver runs before the caller mutates [dv] again) — the
    micro-benchmarks drive the receive path with a single reused control
    this way.  Never use it for a message that stays in flight. *)
