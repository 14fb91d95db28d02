(** Driver for the whole pass: discovery, then the scan. *)

val scan :
  ?cfg:Lint_config.t -> root:string -> dirs:string list -> unit ->
  Report.summary
(** Every finding over the [.cmt]/[.cmti] files under [dirs], plus the
    discovery and skip warnings.  [cfg] defaults to the project policy;
    test_lint.ml drives the fixtures with its own. *)
