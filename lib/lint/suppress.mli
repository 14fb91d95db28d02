(** Per-site suppression: [@lint.allow "rule-id" "justification"]. *)

type allow = {
  rule : string;
  justification : string option;
  loc : Location.t;
  mutable used : bool;
}

type parsed = Allow of allow | Malformed of string * Location.t

val allow_matches : allow_rule:string -> justified:bool -> rule:string -> bool
(** Pure matching core: an allow silences [rule] iff it is justified and
    names the exact rule id or the rule's family. *)

val strings_of_payload : Parsetree.payload -> string list option
(** String literals of an attribute payload ([Some []] for an empty
    payload, [None] when the payload is not string literals). *)

val parse_attributes : Parsetree.attributes -> parsed list
