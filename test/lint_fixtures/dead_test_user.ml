(* A test: its references keep nothing alive. *)

let a = Dead_lib.test_only 1
let b = Dead_lib.reference_ok 2
let c = Dead_lib.reference_bare 3
