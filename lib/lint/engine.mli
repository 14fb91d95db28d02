(** The typed-AST lint pass over .cmt files. *)

type scan = {
  findings : Finding.t list;
  suppressed : (Finding.t * string) list;
}

val scan_structure :
  cfg:Lint_config.t -> file:string -> Typedtree.structure -> scan
(** Scan one compilation unit's implementation; [file] is its source path
    relative to the build root. *)

val source_of_cmt : Cmt_format.cmt_infos -> cmt_path:string -> string
(** The unit's source path relative to the build root. *)
