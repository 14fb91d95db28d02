(** Robust .cmt discovery across source-checkout, in-build and sandboxed
    layouts. *)

type result = {
  cmts : string list;  (** .cmt and .cmti files *)
  load_dirs : string list;
  warnings : string list;
}

val find_cmts : root:string -> dirs:string list -> result
