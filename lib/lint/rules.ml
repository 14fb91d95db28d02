(* The rule registry: every diagnostic the engine can emit.  DESIGN.md §12
   says what each family checks. *)
let ids =
  [
    (* determinism: simulations and fuzz campaigns must stay
       byte-reproducible from the seed *)
    "det/random-self-init"; "det/wall-clock"; "det/domain-spawn";
    "det/atomic"; "det/hashtbl-order";
    (* allocation, in [@@@lint.zero_alloc_hot] scopes *)
    "alloc/tuple"; "alloc/record"; "alloc/construct"; "alloc/closure";
    "alloc/array"; "alloc/list"; "alloc/string"; "alloc/boxed-float";
    (* unsafe-op hygiene *)
    "unsafe/array"; "unsafe/file";
    (* polymorphic compare at a non-scalar type, or at a type variable in
       a hot function *)
    "polycmp/equal"; "polycmp/compare"; "polycmp/hash"; "polycmp/generic-hot";
    (* a lib/ export that no other unit, or only test/, references *)
    "dead/export"; "dead/test-only";
    (* lint hygiene *)
    "lint/missing-justification"; "lint/bad-allow"; "lint/unused-allow";
  ]

let is_known id =
  List.mem id ids
  || List.exists (fun r -> String.starts_with ~prefix:(id ^ "/") r) ids
