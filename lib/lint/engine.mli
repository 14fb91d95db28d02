(** The typed-AST lint pass over .cmt files. *)

type scan = {
  findings : Finding.t list;
  suppressed : (Finding.t * string) list;
}

val empty_scan : scan
val merge : scan -> scan -> scan

type cmt_result = Scanned of string * scan | Skipped of string

val scan_cmt : cfg:Lint_config.t -> string -> cmt_result
(** Read and scan one .cmt.  Unreadable or non-implementation cmts are
    [Skipped] with a warning, never an error: the lint only fails on
    genuine findings. *)
