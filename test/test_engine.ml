module Engine = Rdt_sim.Engine
module Network = Rdt_sim.Network

let make ?(n = 3) ?(net = Network.default) () = Engine.create ~n ~seed:5 ~net ()

let test_delivery () =
  let e = make () in
  let got = ref [] in
  for p = 0 to 2 do
    Engine.set_receiver e p (fun ~src msg -> got := (p, src, msg) :: !got)
  done;
  Engine.send e ~src:0 ~dst:1 "hello";
  Engine.send e ~src:1 ~dst:2 "world";
  Engine.run e;
  Alcotest.(check (list (triple int int string)))
    "both delivered"
    [ (1, 0, "hello"); (2, 1, "world") ]
    (List.sort compare !got)

let test_delay_bounds () =
  let net = { Network.default with min_delay = 1.0; max_delay = 2.0 } in
  let e = make ~net () in
  let arrival = ref nan in
  Engine.set_receiver e 1 (fun ~src:_ _ -> arrival := Engine.now e);
  Engine.set_receiver e 0 (fun ~src:_ _ -> ());
  Engine.set_receiver e 2 (fun ~src:_ _ -> ());
  Engine.send e ~src:0 ~dst:1 ();
  Engine.run e;
  if !arrival < 1.0 || !arrival >= 2.0 then
    Alcotest.failf "delivery at %f outside [1,2)" !arrival

let test_loss () =
  let net = { Network.default with loss_probability = 1.0 } in
  let e = make ~net () in
  Engine.set_receiver e 1 (fun ~src:_ _ -> Alcotest.fail "must be lost");
  Engine.send e ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "lost counted" 1 (Engine.stats e).Engine.lost

let test_reliable_bypasses_loss () =
  let net = { Network.default with loss_probability = 1.0 } in
  let e = make ~net () in
  let got = ref 0 in
  Engine.set_receiver e 1 (fun ~src:_ _ -> incr got);
  Engine.send e ~reliable:true ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "delivered despite loss model" 1 !got

let test_fifo_order () =
  let net = { Network.default with fifo = true; min_delay = 0.1; max_delay = 5.0 } in
  let e = make ~net () in
  let got = ref [] in
  Engine.set_receiver e 1 (fun ~src:_ msg -> got := msg :: !got);
  for i = 1 to 20 do
    Engine.send e ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo preserves send order" (List.init 20 (fun i -> i + 1))
    (List.rev !got)

let test_non_fifo_can_reorder () =
  let net = { Network.default with fifo = false; min_delay = 0.1; max_delay = 10.0 } in
  let e = Engine.create ~n:2 ~seed:11 ~net () in
  let got = ref [] in
  Engine.set_receiver e 1 (fun ~src:_ msg -> got := msg :: !got);
  for i = 1 to 30 do
    Engine.send e ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check bool) "some reordering happened" true
    (List.rev !got <> List.init 30 (fun i -> i + 1))

let test_down_process_drops () =
  let e = make () in
  Engine.set_receiver e 1 (fun ~src:_ _ -> Alcotest.fail "down process received");
  Engine.set_up e 1 false;
  Engine.send e ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "counted as dropped" 1
    (Engine.stats e).Engine.dropped_down

let test_owned_action_skipped_when_down () =
  let e = make () in
  let fired = ref false in
  Engine.schedule e ~owner:1 ~at:1.0 (fun () -> fired := true);
  Engine.set_up e 1 false;
  Engine.run e;
  Alcotest.(check bool) "skipped" false !fired

let test_unowned_action_runs () =
  let e = make () in
  let fired = ref false in
  Engine.schedule e ~at:1.0 (fun () -> fired := true);
  Engine.run e;
  Alcotest.(check bool) "ran" true !fired

let test_flush_in_flight () =
  let e = make () in
  Engine.set_receiver e 1 (fun ~src:_ _ -> Alcotest.fail "flushed message arrived");
  Engine.send e ~src:0 ~dst:1 ();
  Engine.flush_in_flight e;
  Engine.run e;
  Alcotest.(check int) "flushed counted" 1 (Engine.stats e).Engine.flushed

let test_run_until () =
  let e = make () in
  let count = ref 0 in
  Engine.schedule e ~at:1.0 (fun () -> incr count);
  Engine.schedule e ~at:10.0 (fun () -> incr count);
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "only events before the limit" 1 !count;
  Alcotest.(check (float 1e-9)) "clock advanced to limit" 5.0 (Engine.now e)

let test_clock_monotone () =
  let e = make () in
  let times = ref [] in
  for i = 1 to 10 do
    Engine.schedule e ~at:(float_of_int i) (fun () ->
        times := Engine.now e :: !times)
  done;
  Engine.run e;
  let ts = List.rev !times in
  Alcotest.(check (list (float 1e-9))) "monotone" (List.sort compare ts) ts

let test_schedule_in_past_rejected () =
  let e = make () in
  Engine.schedule e ~at:5.0 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule: time in the past") (fun () ->
      Engine.schedule e ~at:1.0 (fun () -> ()))

(* --- sharded execution ------------------------------------------------- *)

(* The dispatch rule: [k] shards on [n] processes run as [min k n] shards
   when the host has that many hardware threads, else as one. *)
let expected_shards ~k ~n =
  let k = min k n in
  if Rdt_parallel.Barrier_team.hardware_parallelism () >= k then k else 1

let test_dispatch_rule () =
  List.iter
    (fun (k, n) ->
      let e : unit Engine.t =
        Engine.create ~n ~seed:5 ~net:Network.default ~shards:k ()
      in
      let want = expected_shards ~k ~n in
      Alcotest.(check int)
        (Printf.sprintf "shards for k=%d n=%d" k n)
        want (Engine.shards e))
    [ (1, 4); (2, 4); (4, 4); (8, 4); (2, 1); (3, 2); (16, 64) ]

let test_sharded_cross_shard_delivery () =
  (* 4 processes on 2 shards, every message crossing the shard boundary
     (through the mailboxes where the host runs the team); each still
     arrives exactly once *)
  let e = Engine.create ~n:4 ~seed:5 ~net:Network.default ~shards:2 () in
  Alcotest.(check int) "effective shards" (expected_shards ~k:2 ~n:4)
    (Engine.shards e);
  let got = ref [] in
  for p = 0 to 3 do
    Engine.set_receiver e p (fun ~src msg -> got := (p, src, msg) :: !got)
  done;
  Engine.send e ~src:0 ~dst:3 "a";
  Engine.send e ~src:3 ~dst:1 "b";
  Engine.send e ~src:1 ~dst:2 "c";
  Engine.run e;
  Alcotest.(check (list (triple int int string)))
    "all delivered once"
    [ (1, 3, "b"); (2, 1, "c"); (3, 0, "a") ]
    (List.sort compare !got)

let test_sharded_same_event_order () =
  (* Drive a message storm and compare the canonical global event order.
     Within a window, shards execute concurrently, so the wall-clock
     interleaving across processes is arbitrary — the deterministic
     object is each process's own log plus the engine's canonical stamp,
     which merges the logs into one total order (exactly how the trace
     reconstructs sequence numbers).  Each cell of [per] and [stamps] is
     only ever touched by its process's shard. *)
  let run_order shards =
    let e = Engine.create ~n:4 ~seed:9 ~net:Network.default ~shards () in
    let per = Array.make 4 [] in
    let stamps = Array.init 4 (fun _ -> Rdt_sim.Stamp.create ()) in
    for p = 0 to 3 do
      Engine.set_receiver e p (fun ~src msg ->
          let c = stamps.(p) in
          Engine.read_stamp e c;
          let key = Rdt_sim.Stamp.(time c, u c, v c) in
          per.(p) <- (key, p, src, msg) :: per.(p);
          (* cascade: every delivery triggers another send, round-robin *)
          if msg < 20 then Engine.send e ~src:p ~dst:((p + 1) mod 4) (msg + 1))
    done;
    for p = 0 to 3 do
      Engine.send e ~src:p ~dst:((p + 1) mod 4) 0
    done;
    Engine.run e;
    Array.to_list per |> List.concat
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
    |> List.map (fun (_, p, src, msg) -> (p, src, msg))
  in
  let seq = run_order 1 in
  Alcotest.(check bool) "some events ran" true (seq <> []);
  List.iter
    (fun k ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "order at %d shards" k)
        seq (run_order k))
    [ 2; 4 ]

let test_pinned_action_fires_when_down () =
  let e = Engine.create ~n:4 ~seed:5 ~net:Network.default ~shards:2 () in
  let pinned = ref false and owned = ref false in
  Engine.schedule e ~pin:1 ~at:1.0 (fun () -> pinned := true);
  Engine.schedule e ~owner:1 ~at:1.0 (fun () -> owned := true);
  Engine.set_up e 1 false;
  Engine.run e;
  Alcotest.(check bool) "pinned fired while down" true !pinned;
  Alcotest.(check bool) "owned skipped while down" false !owned

let test_shards_require_lookahead () =
  let net = { Network.default with min_delay = 0.0 } in
  Alcotest.check_raises "no lookahead"
    (Invalid_argument
       "Engine.create: shards > 1 requires positive network min_delay \
        (conservative windows need non-zero lookahead)") (fun () ->
      ignore (Engine.create ~n:4 ~seed:5 ~net ~shards:2 () : unit Engine.t))

let test_sharded_global_action_order () =
  (* a global action scheduled at a window boundary sees every routed
     event of the same timestamp already executed *)
  let e = Engine.create ~n:2 ~seed:5 ~net:Network.default ~shards:2 () in
  let routed = ref 0 and seen_at_global = ref (-1) in
  Engine.schedule e ~pin:0 ~at:1.0 (fun () -> incr routed);
  Engine.schedule e ~pin:1 ~at:1.0 (fun () -> incr routed);
  Engine.schedule e ~at:1.0 (fun () -> seen_at_global := !routed);
  Engine.run e;
  Alcotest.(check int) "globals run after same-time routed events" 2
    !seen_at_global

let test_sharded_stats_merge () =
  let run shards =
    let e = Engine.create ~n:4 ~seed:13 ~net:Network.default ~shards () in
    for p = 0 to 3 do
      Engine.set_receiver e p (fun ~src:_ msg ->
          if msg < 10 then Engine.send e ~src:p ~dst:((p + 3) mod 4) (msg + 1))
    done;
    Engine.send e ~src:0 ~dst:1 0;
    Engine.run e;
    let s = Engine.stats e in
    (s.Engine.sent, s.Engine.delivered, s.Engine.events)
  in
  Alcotest.(check (triple int int int))
    "merged stats equal sequential" (run 1) (run 4)

let suite =
  [
    Alcotest.test_case "delivery" `Quick test_delivery;
    Alcotest.test_case "delay bounds" `Quick test_delay_bounds;
    Alcotest.test_case "loss" `Quick test_loss;
    Alcotest.test_case "reliable bypasses loss" `Quick test_reliable_bypasses_loss;
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    Alcotest.test_case "non-fifo reorders" `Quick test_non_fifo_can_reorder;
    Alcotest.test_case "down process drops" `Quick test_down_process_drops;
    Alcotest.test_case "owned action skipped when down" `Quick
      test_owned_action_skipped_when_down;
    Alcotest.test_case "unowned action runs" `Quick test_unowned_action_runs;
    Alcotest.test_case "flush in flight" `Quick test_flush_in_flight;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    Alcotest.test_case "schedule in past rejected" `Quick
      test_schedule_in_past_rejected;
    Alcotest.test_case "shard count follows the dispatch rule" `Quick
      test_dispatch_rule;
    Alcotest.test_case "sharded cross-shard delivery" `Quick
      test_sharded_cross_shard_delivery;
    Alcotest.test_case "sharded same event order" `Quick
      test_sharded_same_event_order;
    Alcotest.test_case "pinned action fires when down" `Quick
      test_pinned_action_fires_when_down;
    Alcotest.test_case "shards require lookahead" `Quick
      test_shards_require_lookahead;
    Alcotest.test_case "sharded global action order" `Quick
      test_sharded_global_action_order;
    Alcotest.test_case "sharded stats merge" `Quick test_sharded_stats_merge;
  ]
