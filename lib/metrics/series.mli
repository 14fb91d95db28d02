(** Time series of sampled values (e.g. retained checkpoints over time). *)

type point = { time : float; value : float }

type t

val create : name:string -> t
val add : t -> time:float -> value:float -> unit
val add_int : t -> time:float -> value:int -> unit
val points : t -> point list
val length : t -> int
val last : t -> point option
val values : t -> float list
val stats : t -> Stats.t

val max_value : t -> float
(** [neg_infinity] when empty. *)

val pp : Format.formatter -> t -> unit
(** One line per point: "t=... v=...". *)
