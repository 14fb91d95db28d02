(* Steady-state allocation discipline of the executor (DESIGN.md §10):
   beyond the boxed head time it probes ([Event_queue.next_time] returns
   a float, which boxes when the call is not inlined: 2 words per probe,
   one probe per event), dispatch allocates nothing per event.

   The bound is deliberately loose (16 words/event) so timer jitter or a
   future boxing tweak cannot flake it, while the storm class it guards
   against — hundreds of words per event — stays two orders of magnitude
   away. *)

module Engine = Rdt_sim.Engine
module Network = Rdt_sim.Network

let words_per_event = 16.0

(* an engine with no-op receivers and [msgs] pre-queued deliveries, so
   the measured drain executes events without the handlers themselves
   sending (sends allocate their Deliver cell, which would drown the
   dispatch signal being measured) *)
let preloaded ~msgs =
  let n = 8 in
  let e = Engine.create ~n ~seed:3 ~net:Network.default () in
  for p = 0 to n - 1 do
    Engine.set_receiver e p (fun ~src:_ () -> ())
  done;
  for i = 1 to msgs do
    Engine.send e ~src:(i mod n) ~dst:((i + 3) mod n) ()
  done;
  e

let test_sequential_per_event () =
  let e = preloaded ~msgs:4000 in
  (* warm the first pops *)
  for _ = 1 to 1000 do
    ignore (Engine.step e)
  done;
  let ev0 = (Engine.stats e).Engine.events in
  let w0 = Gc.minor_words () in
  while Engine.step e do
    ()
  done;
  let dw = Gc.minor_words () -. w0 in
  let ev = (Engine.stats e).Engine.events - ev0 in
  Alcotest.(check bool) "drained a real workload" true (ev > 1000);
  let per_event = dw /. float_of_int ev in
  if per_event > words_per_event then
    Alcotest.failf "sequential executor: %.1f words/event (bound %.0f)"
      per_event words_per_event

let suite =
  [
    Alcotest.test_case "sequential executor allocates nothing per event"
      `Quick test_sequential_per_event;
  ]
