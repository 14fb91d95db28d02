(** Streaming summary statistics (Welford) and simple aggregates. *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit

val mean : t -> float
(** 0 on an empty accumulator. *)

val stddev : t -> float
(** Sample standard deviation; 0 with fewer than two observations. *)

val of_list : float list -> t

val percentile : float list -> p:float -> float
(** Nearest-rank percentile of a non-empty list, [p] in [\[0, 100\]]. *)
