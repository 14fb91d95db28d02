(** Time series of sampled values (e.g. retained checkpoints over time). *)

type t

val create : name:string -> t
val add_int : t -> time:float -> value:int -> unit
val length : t -> int
val values : t -> float list
val stats : t -> Stats.t

val max_value : t -> float
(** [neg_infinity] when empty. *)

val pp : Format.formatter -> t -> unit
(** One line per point: "t=... v=...". *)
