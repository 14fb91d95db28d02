module Prng = Rdt_sim.Prng

let test_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_split_independence () =
  let a = Prng.create ~seed:7 in
  let child = Prng.split a in
  (* drawing from the child must not change the parent's future *)
  let b = Prng.create ~seed:7 in
  let _ = Prng.split b in
  let _ = Prng.bits64 child in
  Alcotest.check Alcotest.int64 "parent unaffected by child draws"
    (Prng.bits64 a) (Prng.bits64 b)

let test_int_range () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_int_bad_bound () =
  let t = Prng.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_int_covers_values () =
  let t = Prng.create ~seed:5 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Prng.int t 4) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_float_range () =
  let t = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Prng.float t 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_float_mean () =
  let t = Prng.create ~seed:13 in
  let sum = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    sum := !sum +. Prng.float t 1.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.02 then
    Alcotest.failf "uniform mean drifted: %f" mean

let test_bernoulli () =
  let t = Prng.create ~seed:17 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli t ~p:0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if Float.abs (rate -. 0.25) > 0.02 then
    Alcotest.failf "bernoulli rate drifted: %f" rate

let test_exponential_mean () =
  let t = Prng.create ~seed:19 in
  let sum = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Prng.exponential t ~mean:3.0 in
    if v < 0.0 then Alcotest.fail "negative exponential";
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 3.0) > 0.1 then
    Alcotest.failf "exponential mean drifted: %f" mean

let test_uniform_in () =
  let t = Prng.create ~seed:23 in
  for _ = 1 to 1000 do
    let v = Prng.uniform_in t ~lo:1.5 ~hi:2.0 in
    if v < 1.5 || v >= 2.0 then Alcotest.failf "out of range: %f" v
  done

let test_pick () =
  let t = Prng.create ~seed:29 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let v = Prng.pick t arr in
    Alcotest.(check bool) "member" true (Array.mem v arr)
  done

(* --- indexed split ----------------------------------------------------- *)

let test_split_at_pure () =
  (* splitting is a pure function of (state, index): it does not advance
     the parent, and repeated splits agree *)
  let t = Prng.create ~seed:37 in
  let a = Prng.split_at t ~index:3 in
  let b = Prng.split_at t ~index:3 in
  let xa = Prng.bits64 a and xb = Prng.bits64 b in
  Alcotest.(check int64) "same child stream" xa xb;
  let t' = Prng.create ~seed:37 in
  Alcotest.(check int64) "parent not advanced" (Prng.bits64 t')
    (Prng.bits64 t)

let test_split_at_disjoint () =
  (* children at different indices, and the parent, produce pairwise
     different prefixes (probabilistic, but deterministic given the seed) *)
  let t = Prng.create ~seed:41 in
  let prefix rng = List.init 4 (fun _ -> Prng.bits64 rng) in
  let streams =
    List.init 8 (fun i -> prefix (Prng.split_at t ~index:i))
    @ [ prefix t ]
  in
  let rec pairwise_distinct = function
    | [] -> true
    | x :: rest -> (not (List.mem x rest)) && pairwise_distinct rest
  in
  Alcotest.(check bool) "prefixes pairwise distinct" true
    (pairwise_distinct streams)

let test_split_at_stable () =
  (* golden values: the per-index derivation is part of the determinism
     contract (committed traces depend on it), so a change must be loud *)
  let t = Prng.create ~seed:1 in
  let child i = Prng.bits64 (Prng.split_at t ~index:i) in
  let got = List.init 3 child in
  let again = List.init 3 child in
  Alcotest.(check bool) "derivation is stable" true (got = again);
  Alcotest.(check (list int64))
    "derivation matches the committed goldens"
    [ 0x9a8c65aab0c3f7aaL; 0x7afb4367e360673fL; 0x8681f71e0a9402e3L ]
    got

let test_split_at_negative () =
  let t = Prng.create ~seed:1 in
  Alcotest.check_raises "negative index"
    (Invalid_argument "Prng.split_at: index must be non-negative") (fun () ->
      ignore (Prng.split_at t ~index:(-1)))

(* --- bit-identity with the boxed reference ------------------------------ *)

(* The generator as it was first written: splitmix64 over a boxed
   [mutable int64] field.  Every committed trace, golden and on-disk byte
   is a function of this stream, so the unboxed [Prng] must reproduce it
   draw for draw. *)
(* The splitmix64 finalizer, from the published constants. *)
let reference_mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

module Reference = struct
  type t = { mutable state : int64 }

  let gamma = 0x9E3779B97F4A7C15L
  let create ~seed = { state = reference_mix (Int64.of_int seed) }

  let bits64 t =
    t.state <- Int64.add t.state gamma;
    reference_mix t.state

  let split t = { state = bits64 t }

  let split_at t ~index =
    let z = Int64.add t.state (Int64.mul gamma (Int64.of_int (index + 1))) in
    {
      state =
        reference_mix (Int64.logxor (reference_mix z) 0xD1B54A32D192ED03L);
    }

  let int t bound =
    let max_int62 = (1 lsl 62) - 1 in
    let limit = max_int62 - (max_int62 mod bound) in
    let rec draw () =
      let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
      if v >= limit then draw () else v mod bound
    in
    draw ()

  let float t bound =
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
    float_of_int v /. 9007199254740992.0 *. bound

  let bool t = Int64.logand (bits64 t) 1L = 1L
end

(* One mixed stream of every kind of draw, as a string so a mismatch
   prints where the two generators part.  Bounds include 1, powers of two,
   and values near 2^62 where rejection sampling redraws often. *)
let draws ~bits64 ~int ~float ~bool rng =
  let bounds = [| 1; 2; 7; 1024; 1_000_003; (1 lsl 61) + 1; max_int / 3 |] in
  List.init 64 (fun i ->
      match i mod 4 with
      | 0 -> Printf.sprintf "b%Lx" (bits64 rng)
      | 1 -> Printf.sprintf "i%d" (int rng bounds.(i / 4 mod Array.length bounds))
      | 2 -> Printf.sprintf "f%h" (float rng 3.5)
      | _ -> Printf.sprintf "c%b" (bool rng))
  |> String.concat " "

let new_draws = draws ~bits64:Prng.bits64 ~int:Prng.int ~float:Prng.float ~bool:Prng.bool

let ref_draws =
  draws ~bits64:Reference.bits64 ~int:Reference.int ~float:Reference.float
    ~bool:Reference.bool

let prop_bit_identical =
  QCheck.Test.make ~count:300
    ~name:"unboxed state reproduces the boxed splitmix64 stream"
    QCheck.(pair int (int_bound 1000))
    (fun (seed, index) ->
      let mix_ok =
        Int64.equal (Prng.mix (Int64.of_int seed))
          (reference_mix (Int64.of_int seed))
      in
      let a = Prng.create ~seed and r = Reference.create ~seed in
      let same what x y =
        String.equal x y || QCheck.Test.fail_reportf "%s: %s <> %s" what x y
      in
      mix_ok
      && same "root" (new_draws a) (ref_draws r)
      && same "split_at"
           (new_draws (Prng.split_at a ~index))
           (ref_draws (Reference.split_at r ~index))
      && same "split" (new_draws (Prng.split a)) (ref_draws (Reference.split r))
      && same "parent after split" (new_draws a) (ref_draws r))

let test_int_allocates_nothing () =
  let t = Prng.create ~seed:43 in
  let draws = 100_000 in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to draws do
    sink := !sink + Prng.int t (1 + (i land 1023))
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sink);
  (* [Gc.minor_words] boxes its own float result *)
  if words > 8.0 then
    Alcotest.failf "Prng.int: %.0f minor words over %d draws (want 0)" words
      draws

let suite =
  [
    Alcotest.test_case "deterministic streams" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "int range" `Quick test_int_range;
    Alcotest.test_case "int bad bound" `Quick test_int_bad_bound;
    Alcotest.test_case "int covers values" `Quick test_int_covers_values;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "uniform_in range" `Quick test_uniform_in;
    Alcotest.test_case "pick membership" `Quick test_pick;
    Alcotest.test_case "split_at is pure" `Quick test_split_at_pure;
    Alcotest.test_case "split_at streams disjoint" `Quick
      test_split_at_disjoint;
    Alcotest.test_case "split_at derivation stable" `Quick
      test_split_at_stable;
    Alcotest.test_case "split_at rejects negative index" `Quick
      test_split_at_negative;
    QCheck_alcotest.to_alcotest prop_bit_identical;
    Alcotest.test_case "int allocates nothing per draw" `Quick
      test_int_allocates_nothing;
  ]
