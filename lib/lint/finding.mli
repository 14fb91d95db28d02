(** A single diagnostic produced by the lint engine. *)

type severity = Error | Warning

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  context : string;
  message : string;
}

val compare_by_site : t -> t -> int
val sort : t list -> t list
val pp : Format.formatter -> t -> unit
