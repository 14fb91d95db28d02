(* Splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014).  Chosen because it is trivially splittable,
   passes BigCrush, and needs only 64-bit arithmetic. *)

(* The 64-bit state lives unboxed in 8 bytes, read and written with
   [Bytes.get/set_int64_le], so a draw allocates nothing and stores no
   pointer; a [mutable int64] field would box a fresh state, behind a
   write barrier, on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] state t = Bytes.get_int64_le t 0

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

(* Advance the state and return the next output.  Inlined into every
   draw below, so the [int64] stays in a register. *)
let[@inline] next t =
  let s = Int64.add (state t) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (next t)

(* Indexed split: child [i] is a pure function of the parent's *current*
   state and [i]; the parent does not advance, so any number of processes
   can derive their streams from one root without perturbing each other.  The
   child state is double-mixed so it never equals a raw output of the
   parent's own sequential stream. *)
let split_at t ~index =
  if index < 0 then invalid_arg "Prng.split_at: index must be non-negative";
  let z =
    Int64.add (state t) (Int64.mul golden_gamma (Int64.of_int (index + 1)))
  in
  of_state (mix (Int64.logxor (mix z) 0xD1B54A32D192ED03L))

(* Rejection sampling to avoid modulo bias: redraw a non-negative 62-bit
   int (the top bits) until it falls below [limit].  Top-level rather than
   a local closure, which would be allocated on every call. *)
let rec draw_below t ~bound ~limit =
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  if v >= limit then draw_below t ~bound ~limit else v mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let max_int62 = (1 lsl 62) - 1 in
  draw_below t ~bound ~limit:(max_int62 - (max_int62 mod bound))

let float t bound =
  (* 53 uniform mantissa bits. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t ~p = float t 1.0 < p

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let uniform_in t ~lo ~hi = lo +. float t (hi -. lo)

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))
