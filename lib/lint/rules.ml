type t = { id : string; family : string; doc : string }

let mk id doc =
  match String.index_opt id '/' with
  | None -> invalid_arg ("Rules.mk: rule id without family: " ^ id)
  | Some i -> { id; family = String.sub id 0 i; doc }

let all =
  [
    (* determinism: simulations and fuzz campaigns must stay
       byte-reproducible from the seed *)
    mk "det/random-self-init"
      "Random.self_init seeds from the environment; use Prng with an \
       explicit seed";
    mk "det/wall-clock"
      "wall-clock reads (Unix.gettimeofday/Unix.time/Sys.time) leak real \
       time into simulated time";
    mk "det/domain-spawn"
      "Domain.spawn in the library; every run is sequential on one domain";
    mk "det/atomic"
      "Atomic in the library; with one domain there is no shared state to \
       guard";
    mk "det/hashtbl-order"
      "Hashtbl.iter/fold visit in hash order, which depends on insertion \
       history; sort the keys or keep a deterministic index";
    (* allocation: modules/functions under [@@@lint.zero_alloc_hot] *)
    mk "alloc/tuple" "tuple construction allocates on the hot path";
    mk "alloc/record" "record construction allocates on the hot path";
    mk "alloc/construct"
      "non-constant constructor application (Some, ::, ref, lazy) allocates \
       on the hot path";
    mk "alloc/closure" "capturing closure allocates on the hot path";
    mk "alloc/array"
      "array literal or copying Array operation allocates on the hot path";
    mk "alloc/list" "List combinator allocates on the hot path";
    mk "alloc/string"
      "string/bytes building (^, String.sub, Printf.sprintf, ...) allocates \
       on the hot path";
    mk "alloc/boxed-float"
      "returning float from a hot function boxes the result";
    (* unsafe-op hygiene *)
    mk "unsafe/array"
      "Array/Bytes.unsafe_get/set outside a [@@lint.bounds_checked] \
       function";
    mk "unsafe/file"
      "unsafe indexing in a file that is not on the unsafe-op allowlist";
    (* polymorphic compare *)
    mk "polycmp/equal"
      "polymorphic =/<> instantiated at a non-scalar type; write a typed \
       equality";
    mk "polycmp/compare"
      "polymorphic compare/min/max/ordering instantiated at a non-scalar \
       type";
    mk "polycmp/hash" "Hashtbl.hash instantiated at a non-scalar type";
    mk "polycmp/generic-hot"
      "comparison left at a type variable inside a [@@@lint.zero_alloc_hot] \
       or [@@lint.bounds_checked] function: it compiles to a \
       caml_compare-family C call, and the stores beside it to caml_modify";
    (* lint hygiene *)
    mk "lint/missing-justification"
      "[@lint.allow] without a justification string; write [@lint.allow \
       \"rule\" \"why\"]";
    mk "lint/bad-allow" "malformed [@lint.allow] payload or unknown rule id";
    mk "lint/unused-allow" "[@lint.allow] that suppressed nothing";
  ]

let ids = List.map (fun r -> r.id) all
let families = List.sort_uniq String.compare (List.map (fun r -> r.family) all)

let is_known id =
  List.exists (fun r -> String.equal r.id id) all
  || List.exists (fun f -> String.equal f id) families
