(** The rule registry: every diagnostic the engine can emit. *)

val is_known : string -> bool
(** True for exact rule ids and for bare family names (valid in
    [@lint.allow]). *)
