(* The dead/* family.  The fixture scope treats this interface as library
   code, dead_user.ml as a caller outside the tests and dead_test_user.ml
   as a test. *)

val unused : int -> int (* EXPECT dead/export *)

(* used only inside dead_lib.ml, which does not count *)
val internal_only : int -> int (* EXPECT dead/export *)

val test_only : int -> int (* EXPECT dead/test-only *)

(* the caller reaches these through a local open and a module alias *)
val via_open : int -> int
val via_alias : int -> int

val reference_ok : int -> int [@@lint.reference "fixture: a test oracle"]
val reference_bare : int -> int [@@lint.reference] (* EXPECT lint/missing-justification *) (* EXPECT dead/test-only *)
val reference_live : int -> int [@@lint.reference "fixture: but it has a caller"] (* EXPECT lint/unused-allow *)

module Sub : sig
  val sub_used : int
  val sub_unused : int (* EXPECT dead/export *)
end
