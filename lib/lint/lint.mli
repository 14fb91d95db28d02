(** Driver for the whole pass: discovery, scan, report. *)

val scan :
  ?cfg:Lint_config.t -> root:string -> dirs:string list -> unit ->
  Engine.scan * string list
(** Discovery + scan without rendering: the findings and the
    discovery/skip warnings.  test_lint.ml drives the fixtures with
    this. *)

val run : ?cfg:Lint_config.t -> root:string -> dirs:string list -> unit -> int
(** Scans, prints the text report on stdout and returns the process exit
    status: 0 when clean (possibly with warnings about missing
    artefacts), 1 on any error-severity finding. *)
