(** Classic vector clocks (Fidge/Mattern).

    Used by the trace analyzer to compute the happened-before relation of a
    recorded execution, independently from the dependency vectors the
    checkpointing protocols propagate — so the two mechanisms can be checked
    against each other. *)

type t

val create : n:int -> t
(** All-zero clock for an [n]-process system. *)

val copy : t -> t

val get : t -> int -> int
val set : t -> int -> int -> unit

val tick : t -> int -> unit
(** [tick c i] increments component [i]; call on every local event of
    process [i]. *)

val merge_into : dst:t -> src:t -> unit
(** Component-wise maximum, written into [dst]; the receive rule.
    @raise Invalid_argument if the two clocks differ in size. *)
