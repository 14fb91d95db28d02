(** The rule registry: every diagnostic the engine can emit. *)

type t = { id : string; family : string; doc : string }

val ids : string list
val families : string list

val is_known : string -> bool
(** True for exact rule ids and for bare family names (valid in
    [@lint.allow]). *)
