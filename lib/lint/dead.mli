(** The dead/* rule family: exported values that no other compilation
    unit, or only test code, references. *)

type t

val create : Lint_config.t -> t

val add_implementation : t -> file:string -> Typedtree.structure -> unit
(** Index every value the unit references, through module aliases. *)

val add_interface : t -> unit:string -> file:string -> Typedtree.signature -> unit
(** Register the [val]s of an in-scope interface for checking. *)

val check : t -> Finding.t list
(** [dead/export] and [dead/test-only] findings over everything added,
    plus the meta-rules for [[@@lint.reference "why"]]. *)
