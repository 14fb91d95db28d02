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

let test_pinned_action_fires_when_down () =
  let e = Engine.create ~n:4 ~seed:5 ~net:Network.default () in
  let pinned = ref false in
  Engine.schedule e ~pin:1 ~at:1.0 (fun () -> pinned := true);
  Engine.set_up e 1 false;
  Engine.run e;
  Alcotest.(check bool) "pinned fired while down" true !pinned

let test_unpinned_after_pinned () =
  (* canonical keys: an unpinned action sees every pinned event of the
     same timestamp already executed, whatever the scheduling order *)
  let e = make ~n:2 () in
  let pinned = ref 0 and seen_by_unpinned = ref (-1) in
  Engine.schedule e ~at:1.0 (fun () -> seen_by_unpinned := !pinned);
  Engine.schedule e ~pin:1 ~at:1.0 (fun () -> incr pinned);
  Engine.schedule e ~pin:0 ~at:1.0 (fun () -> incr pinned);
  Engine.run e;
  Alcotest.(check int) "unpinned runs after same-time pinned events" 2
    !seen_by_unpinned

(* --- event-order golden ------------------------------------------------ *)

(* [Digest] of [Trace.to_string] for fixed runner configurations.  The
   trace is the whole event order as the protocols saw it, so any change
   to the engine's tie-breaking keys, to the network or workload draws,
   or to what the middleware records shows up here; a deliberate change
   must regenerate the digests. *)
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload

let golden =
  [
    ( "uniform default",
      { Sim_config.default with n = 8; seed = 7; duration = 50.0 },
      "15ef1ffb1a6648ebd1127a320ef4ea2a" );
    ( "faults and recovery",
      {
        Sim_config.default with
        n = 6;
        seed = 3;
        duration = 40.0;
        faults =
          [
            { Sim_config.pid = 2; crash_at = 15.0; repair_after = 4.0 };
            { Sim_config.pid = 4; crash_at = 25.0; repair_after = 6.0 };
          ];
      },
      "534561feb5ab6fc0deef59e0fe80030a" );
    ( "coordinated rounds",
      {
        Sim_config.default with
        n = 6;
        seed = 11;
        duration = 40.0;
        gc = Sim_config.Coordinated { period = 5.0 };
        net = { Network.default with loss_probability = 0.05 };
      },
      "4742e81a51a94dd2270f7ec1f8dbd33c" );
    ( "fifo client-server",
      {
        Sim_config.default with
        n = 7;
        seed = 11;
        duration = 60.0;
        gc = Sim_config.Local_lazy { period = 4.0 };
        workload =
          {
            Workload.default with
            pattern = Workload.Client_server { servers = 2 };
          };
        net = { Network.default with fifo = true };
        faults = [ { Sim_config.pid = 1; crash_at = 20.0; repair_after = 6.0 } ];
      },
      "d36333c12a61bf65dbf52890c461ff79" );
    ( "n=256 client-server",
      {
        Sim_config.default with
        n = 256;
        seed = 1;
        duration = 1.0;
        workload =
          {
            Workload.default with
            pattern = Workload.Client_server { servers = 16 };
          };
      },
      "c122fde25da04b212dec9a295ca02b63" );
  ]

let test_event_order_golden (name, cfg, digest) () =
  let r = Rdt_core.Runner.create cfg in
  Rdt_core.Runner.run r;
  let trace = Rdt_ccp.Trace.to_string (Rdt_core.Runner.trace r) in
  Alcotest.(check string) name digest (Digest.to_hex (Digest.string trace))

(* A message storm straight on the engine: every delivery sends the next
   message round-robin, so ties between same-time events are common.  The
   delivery order is pinned by its digest, and a second run must repeat
   it. *)
let storm_order () =
  let e = Engine.create ~n:4 ~seed:9 ~net:Network.default () in
  let order = Buffer.create 1024 in
  for p = 0 to 3 do
    Engine.set_receiver e p (fun ~src msg ->
        Buffer.add_string order (Printf.sprintf "%d<%d:%d;" p src msg);
        if msg < 20 then Engine.send e ~src:p ~dst:((p + 1) mod 4) (msg + 1))
  done;
  for p = 0 to 3 do
    Engine.send e ~src:p ~dst:((p + 1) mod 4) 0
  done;
  Engine.run e;
  Buffer.contents order

let test_message_storm_order () =
  let first = storm_order () in
  Alcotest.(check string) "repeat run" first (storm_order ());
  Alcotest.(check string)
    "delivery order digest" "388934e015582e5382a3be09f9b2b90a"
    (Digest.to_hex (Digest.string first))

let suite =
  [
    Alcotest.test_case "delivery" `Quick test_delivery;
    Alcotest.test_case "delay bounds" `Quick test_delay_bounds;
    Alcotest.test_case "loss" `Quick test_loss;
    Alcotest.test_case "reliable bypasses loss" `Quick test_reliable_bypasses_loss;
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    Alcotest.test_case "non-fifo reorders" `Quick test_non_fifo_can_reorder;
    Alcotest.test_case "down process drops" `Quick test_down_process_drops;
    Alcotest.test_case "unowned action runs" `Quick test_unowned_action_runs;
    Alcotest.test_case "flush in flight" `Quick test_flush_in_flight;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    Alcotest.test_case "schedule in past rejected" `Quick
      test_schedule_in_past_rejected;
    Alcotest.test_case "pinned action fires when down" `Quick
      test_pinned_action_fires_when_down;
    Alcotest.test_case "unpinned action runs after same-time pinned events"
      `Quick test_unpinned_after_pinned;
    Alcotest.test_case "message storm event order" `Quick
      test_message_storm_order;
  ]
  @ List.map
      (fun ((name, _, _) as g) ->
        Alcotest.test_case ("event order: " ^ name) `Quick
          (test_event_order_golden g))
      golden
