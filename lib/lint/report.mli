(** Text reporter over a lint run. *)

type summary = {
  findings : Finding.t list;
  suppressed : (Finding.t * string) list;
  warnings : string list;
}

val ok : summary -> bool
(** True when there are no error-severity findings. *)

val text : Format.formatter -> summary -> unit
