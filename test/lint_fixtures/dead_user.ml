(* Callers outside the tests: a local open, a module alias, a plain path
   and a submodule path. *)

let a = Dead_lib.(via_open 1)

module D = Dead_lib

let b = D.via_alias 2
let c = Dead_lib.reference_live 3
let d = Dead_lib.Sub.sub_used
