module Q = Rdt_sim.Event_queue

(* (time, value) of the head, removed *)
let take q =
  let time = Q.next_time q in
  (time, Q.pop q)

let drain q =
  let rec loop acc =
    if Q.is_empty q then List.rev acc else loop (take q :: acc)
  in
  loop []

(* [add q ~time x] schedules [x] under a key of its own: every entry gets
   a fresh one, as every engine event does. *)
let next_key = ref 0

let add q ~time x =
  incr next_key;
  Q.add_keyed q ~time ~u:0 ~v:!next_key x

let test_time_order () =
  let q = Q.create () in
  add q ~time:3.0 "c";
  add q ~time:1.0 "a";
  add q ~time:2.0 "b";
  Alcotest.(check (list (pair (float 0.0) string)))
    "sorted by time"
    [ (1.0, "a"); (2.0, "b"); (3.0, "c") ]
    (drain q)

let test_keyed_ties () =
  (* at equal times, (u, v) decides regardless of insertion order *)
  let q = Q.create () in
  Q.add_keyed q ~time:1.0 ~u:2 ~v:0 "u2";
  Q.add_keyed q ~time:1.0 ~u:1 ~v:7 "u1v7";
  Q.add_keyed q ~time:1.0 ~u:1 ~v:3 "u1v3";
  Q.add_keyed q ~time:0.5 ~u:9 ~v:9 "early";
  let popped = List.init 4 (fun _ -> Q.pop q) in
  Alcotest.(check (list string))
    "time, then u, then v"
    [ "early"; "u1v3"; "u1v7"; "u2" ]
    popped

let test_length_and_empty () =
  let q = Q.create () in
  Alcotest.(check bool) "fresh empty" true (Q.is_empty q);
  Alcotest.(check (float 0.0)) "empty next_time" infinity (Q.next_time q);
  add q ~time:1.0 ();
  add q ~time:2.0 ();
  ignore (Q.pop q);
  Alcotest.(check bool) "one left" false (Q.is_empty q);
  ignore (Q.pop q);
  Alcotest.(check bool) "drained empty" true (Q.is_empty q);
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Event_queue.pop: empty queue") (fun () -> Q.pop q)

let test_interleaved_operations () =
  let q = Q.create () in
  add q ~time:2.0 2;
  add q ~time:1.0 1;
  Alcotest.(check int) "1 first" 1 (Q.pop q);
  add q ~time:0.5 0;
  Alcotest.(check (float 0.0)) "head after add" 0.5 (Q.next_time q);
  Alcotest.(check (pair (float 0.0) int)) "then fires" (0.5, 0) (take q)

let test_many_random () =
  let rng = Rdt_sim.Prng.create ~seed:99 in
  let q = Q.create () in
  let times = List.init 500 (fun _ -> Rdt_sim.Prng.float rng 100.0) in
  List.iter (fun t -> add q ~time:t ()) times;
  let popped = List.map fst (drain q) in
  Alcotest.(check (list (float 1e-9))) "heap sorts" (List.sort compare times)
    popped

(* Reference model: a sorted association list over (time, u, v) — the
   order the heap must reproduce. *)
module Reference = struct
  type 'a t = { mutable entries : (float * int * int * 'a) list }

  let create () = { entries = [] }

  let add t ~time ~u ~v x =
    let key (time, u, v, _) = (time, u, v) in
    let e = (time, u, v, x) in
    let rec insert = function
      | [] -> [ e ]
      | y :: rest as l -> if compare (key e) (key y) < 0 then e :: l else y :: insert rest
    in
    t.entries <- insert t.entries

  let pop t =
    match t.entries with
    | [] -> None
    | (time, u, v, x) :: rest ->
      t.entries <- rest;
      Some (time, u, v, x)
end

(* Coarse times and a small [u] force ties at both levels, so the (u, v)
   tie-break is exercised; [v] counts the adds, which keeps every key
   distinct, as the queue requires.  Runs that schedule more than they
   fire grow the columns several times past their initial capacity. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"schedule/fire = sorted-list reference order"
    ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Rdt_sim.Prng.create ~seed in
      let q = Q.create () in
      let r = Reference.create () in
      let adds = 2 + Rdt_sim.Prng.int rng 4 in
      let agree () =
        match Reference.pop r with
        | None -> Q.is_empty q
        | Some _ when Q.is_empty q -> false
        | Some (t1, _, _, x1) ->
          let t2, x2 = take q in
          t1 = t2 && x1 = x2
      in
      let ok = ref true in
      for v = 1 to 400 do
        if Rdt_sim.Prng.int rng (adds + 1) < adds then begin
          let time = float_of_int (Rdt_sim.Prng.int rng 8) in
          let u = Rdt_sim.Prng.int rng 3 in
          let x = Rdt_sim.Prng.int rng 1_000_000 in
          Q.add_keyed q ~time ~u ~v x;
          Reference.add r ~time ~u ~v x
        end
        else if not (agree ()) then ok := false;
        if Q.is_empty q <> (r.Reference.entries = []) then ok := false;
        if
          Q.next_time q
          <> (match r.Reference.entries with
             | [] -> infinity
             | (t, _, _, _) :: _ -> t)
        then ok := false
      done;
      (* drain the rest: firing order must agree to the end *)
      while !ok && not (Q.is_empty q && r.Reference.entries = []) do
        if not (agree ()) then ok := false
      done;
      !ok)

(* Phases that mostly add, then mostly pop, repeated: the queue grows
   through several capacities, drains to a few entries and refills, so
   the payload pool hands out slots freed at every depth of the heap.
   Payloads are fresh boxed values, checked by identity: a pop must
   return the very value its entry was added with.  Keys are unique:
   [u] is random and [v] counts the adds. *)
let prop_slot_reuse =
  QCheck.Test.make ~name:"grow/drain/refill = sorted-list reference, payload by identity"
    ~count:100
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Rdt_sim.Prng.create ~seed in
      let q = Q.create () in
      let r = Reference.create () in
      let live = ref 0 and v = ref 0 and ok = ref true in
      let pop_both () =
        match Reference.pop r with
        | None -> if not (Q.is_empty q) then ok := false
        | Some (time, _, _, x) ->
          if Q.next_time q <> time || Q.pop q != x then ok := false;
          decr live
      in
      for phase = 0 to 5 do
        let target = if phase mod 2 = 0 then 20 + Rdt_sim.Prng.int rng 300 else Rdt_sim.Prng.int rng 4 in
        while !ok && !live <> target do
          (* four steps in five move toward the target *)
          let toward = Rdt_sim.Prng.int rng 5 < 4 in
          if (!live < target) = toward then begin
            incr v;
            let time = float_of_int (Rdt_sim.Prng.int rng 16) in
            let u = Rdt_sim.Prng.int rng 4 in
            let x = ref !v in
            Q.add_keyed q ~time ~u ~v:!v x;
            Reference.add r ~time ~u ~v:!v x;
            incr live
          end
          else pop_both ()
        done
      done;
      while !ok && !live > 0 do
        pop_both ()
      done;
      !ok && Q.is_empty q)

let test_growth_past_capacity () =
  (* thousands of live entries, far past the initial columns, popped in
     order with key ties intact *)
  let q = Q.create () in
  let k = 5000 in
  for i = 0 to k - 1 do
    Q.add_keyed q ~time:(float_of_int ((k - 1 - i) / 2)) ~u:i ~v:0 i
  done;
  let popped = List.map snd (drain q) in
  let expected =
    List.init k (fun j ->
        (* time slot j/2 holds the pair inserted at i and i+1, i even *)
        let slot = j / 2 in
        let first = k - 2 - (2 * slot) in
        if j mod 2 = 0 then first else first + 1)
  in
  Alcotest.(check (list int)) "time order, key order within a time"
    expected popped

let suite =
  [
    Alcotest.test_case "time order" `Quick test_time_order;
    Alcotest.test_case "keyed ties order by (u, v)" `Quick test_keyed_ties;
    Alcotest.test_case "length / is_empty" `Quick test_length_and_empty;
    Alcotest.test_case "interleaved ops" `Quick test_interleaved_operations;
    Alcotest.test_case "random stress sorts" `Quick test_many_random;
    Alcotest.test_case "growth past capacity" `Quick test_growth_past_capacity;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_slot_reuse;
  ]
