(* [merge_into] folds every received clock in [Ccp] (and so in every
   oracle run); it and the accessors stay allocation-free and typed at
   [int array], which rdt_lint checks (DESIGN.md §12). *)
[@@@lint.zero_alloc_hot "get" "set" "tick" "merge_into"]

type t = int array

let create ~n =
  if n <= 0 then invalid_arg "Vector_clock.create: n must be positive";
  Array.make n 0

let copy = Array.copy
let get (t : int array) i = t.(i)
let set (t : int array) i v = t.(i) <- v
let tick t i = t.(i) <- t.(i) + 1

let merge_into ~(dst : int array) ~src =
  if Array.length dst <> Array.length src then
    invalid_arg "Vector_clock.merge_into: size mismatch";
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done
