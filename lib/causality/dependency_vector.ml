(* The named functions below are the middleware's per-message hot path;
   rdt_lint checks them against alloc/* (see DESIGN.md §12) so that
   BENCH_micro's allocs_per_run = 0 stays true by construction. *)
[@@@lint.zero_alloc_hot
  "blit_into" "merge_from_message_iter" "has_newer_entries" "get"
  "increment"]

type t = int array

let create ~n =
  if n <= 0 then invalid_arg "Dependency_vector.create: n must be positive";
  Array.make n 0

let get (t : int array) i = t.(i)
let increment t i = t.(i) <- t.(i) + 1

(* The in-place operations below are the hot path of the middleware: one
   arity check at the entry point, then [Array.unsafe_get]/[unsafe_set] in
   the inner loop.  Every loop bound is the checked common length, so the
   unsafe accesses cannot go out of range.  Each one is typed at
   [int array] in the implementation, not only in the .mli: left
   generic, the compiler emits a [caml_greaterthan] C call per compare and
   a [caml_modify] per store (polycmp/generic-hot rejects that). *)

let check_arity ~op a b =
  if Array.length a <> Array.length b then
    invalid_arg ("Dependency_vector." ^ op ^ ": size mismatch")

let blit_into ~(src : int array) ~dst =
  check_arity ~op:"blit_into" src dst;
  Array.blit src 0 dst 0 (Array.length src)

let merge_from_message_iter (t : int array) m ~f =
  check_arity ~op:"merge_from_message_iter" t m;
  for j = 0 to Array.length t - 1 do
    let mj = Array.unsafe_get m j in
    if mj > Array.unsafe_get t j then begin
      Array.unsafe_set t j mj;
      f j
    end
  done
[@@lint.bounds_checked]

(* The recursive scan is top-level (not a local closure): a local
   [let rec loop] capturing the vectors costs a 5-word closure per call,
   which the alloc/closure rule rejects in this module. *)
let rec newer_from ~(local : int array) ~incoming j =
  j < Array.length local
  && (Array.unsafe_get incoming j > Array.unsafe_get local j
     || newer_from ~local ~incoming (j + 1))
[@@lint.bounds_checked]

let has_newer_entries ~local ~incoming =
  check_arity ~op:"has_newer_entries" local incoming;
  newer_from ~local ~incoming 0

let to_array = Array.copy
let view t = t
let of_view a = a
