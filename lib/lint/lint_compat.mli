(** Version-dependent corners of compiler-libs, selected at build time
    (see the copy rules in [dune]).  Everything else rdt_lint touches is
    stable across 5.1 and 5.2. *)

val lambda_bodies : Typedtree.expression -> (Typedtree.expression list * bool) option
(** [lambda_bodies e] is [Some (bodies, single)] when [e] is a lambda:
    [bodies] are the right-hand sides of its cases and [single] is true
    when the lambda has exactly one case, i.e. when an immediately nested
    lambda is just the next argument of a curried definition rather than
    a closure returned per call.  [None] when [e] is not a lambda. *)

val init_load_path : string list -> unit
(** Reset the compiler's load path to exactly the given directories. *)
