(** ASCII table rendering for the benchmark harness and CLI reports. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** Column headers with their alignment. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument on arity mismatch with the columns. *)

val add_separator : t -> unit
(** Horizontal rule between row groups. *)

val print : t -> unit
(** Prints the table to stdout with a header rule, followed by a newline,
    e.g.:
    {v
    workload   | n  | retained
    -----------+----+---------
    uniform    |  8 |     3.20
    v} *)

(* Formatting helpers used by every experiment. *)

val fmt_float : ?decimals:int -> float -> string
val fmt_ratio : float -> float -> string
(** "a/b (xx.x%)"; "-" when [b] is zero. *)
