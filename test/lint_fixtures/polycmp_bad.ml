(* Polymorphic-compare family.  [pid] aliases int, so compares at [pid]
   are scalar after expansion and must NOT be flagged; records, tuples
   and lists must be. *)

type pid = int
type coords = { x : int; y : int }

let same_coords a (b : coords) = a = b (* EXPECT polycmp/equal *)
let diff_coords a (b : coords) = a <> b (* EXPECT polycmp/equal *)
let order_lists a (b : int list) = compare a b (* EXPECT polycmp/compare *)
let later (a : pid * pid) b = a < b (* EXPECT polycmp/compare *)
let hash_coords (p : coords) = Hashtbl.hash p (* EXPECT polycmp/hash *)

(* scalar instantiations: all clean *)
let same_pid (a : pid) (b : pid) = a = b
let max_pid (a : pid) (b : pid) = max a b
let same_name (a : string) b = a = b

(* hot code: a compare left at a type variable compiles to a C call (a
   generic helper outside the hot path is still not an instantiation
   site, see [later_generic]) *)
let first_greater a b = a.(0) > b.(0) [@@lint.zero_alloc_hot] (* EXPECT polycmp/generic-hot *)
let first_equal a b = a.(0) = b.(0) [@@lint.bounds_checked] (* EXPECT polycmp/generic-hot *)
let first_greater_int (a : int array) b = a.(0) > b.(0) [@@lint.zero_alloc_hot]
let later_generic a b = a > b
