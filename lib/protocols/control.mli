(** Control information piggybacked on application messages.

    All the protocols in this library fit in one record: the dependency
    vector (used by every RDT protocol here and by RDT-LGC) and a scalar
    logical index (used by the index-based BCS protocol; zero elsewhere).
    Keeping a single concrete type lets protocols be swapped at run time
    without existential plumbing; the per-message control size reported by
    the metrics accounts only for the fields a protocol actually reads. *)

type t = {
  dv : int array;  (** sender's dependency vector at send time *)
  index : int;  (** sender's logical checkpoint index (BCS) *)
}

val make : dv:int array -> index:int -> t
(** Owning constructor: copies [dv], so the control survives any later
    mutation of the sender's vector — what a message in flight needs. *)

val borrow : dv:int array -> index:int -> t
(** No-copy constructor for controls that are consumed synchronously
    (receiver runs before the caller mutates [dv] again) — the
    micro-benchmarks drive the receive path with a single reused control
    this way.  Never use it for a message that stays in flight. *)

val pp : Format.formatter -> t -> unit
