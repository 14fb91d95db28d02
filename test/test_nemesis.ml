(* Nemesis tests: the fault schedule is a pure function of
   (config, frame flow) — two independently wrapped transports fed the
   same flow must produce byte-identical schedules, identical fault
   stats and identical inner-transport traffic (the replayability
   property the live-fuzz campaign rests on) — plus the termination
   discipline (App frames are never dropped, partitions punch through
   after pt_attempts transmissions) and config serialization. *)

module Transport = Rdt_transport.Transport
module Wire = Rdt_transport.Wire
module Nemesis = Rdt_transport.Nemesis

(* --- a recording in-memory inner transport ------------------------------ *)

type dummy = {
  mutable sent : (int * Wire.frame) list;  (* newest first *)
  mutable raws : (int * string) list;
  mutable timers : (int * float) list;
  mutable handler : Transport.event -> unit;
}

let dummy_inner ?(me = 0) () =
  let d =
    { sent = []; raws = []; timers = []; handler = (fun _ -> ()) }
  in
  let tr =
    {
      Transport.me;
      now = (fun () -> 0.0);
      send = (fun ~dst frame -> d.sent <- (dst, frame) :: d.sent);
      send_raw =
        (fun ~dst bytes -> d.raws <- (dst, Bytes.to_string bytes) :: d.raws);
      connect = (fun ~dst:_ ~port:_ -> ());
      listen_port = 0;
      set_timer = (fun ~id ~after -> d.timers <- (id, after) :: d.timers);
      set_handler = (fun f -> d.handler <- f);
      poll = (fun ~timeout:_ -> `Idle);
      close = (fun () -> ());
    }
  in
  (d, tr)

let fire_timers d =
  (* release in arming order, as a well-behaved timer wheel would *)
  List.iter
    (fun (id, _) -> d.handler (Transport.Timer { id }))
    (List.rev d.timers);
  d.timers <- []

let sent_payloads d =
  List.rev_map (fun (dst, f) -> (dst, Wire.encode_payload f)) d.sent

(* --- determinism (the replayability witness) ---------------------------- *)

let gen_flow =
  let open QCheck.Gen in
  let gen_frame =
    oneof
      [
        (let* msg_id = int_bound 15 in
         let* src = int_bound 3 in
         return (Wire.App { epoch = 1; msg_id; src; dv = [| 1; 2 |]; index = 0 }));
        map
          (fun seq -> Wire.Cmd { seq; now = 0.0; cmd = Wire.C_checkpoint })
          (int_bound 15);
        map
          (fun seq -> Wire.Reply { seq; reply = Wire.R_error { message = "x" } })
          (int_bound 15);
        map
          (fun port -> Wire.Hello { pid = 0; port; recovering = false })
          (int_bound 15);
      ]
  in
  let* seed = int_bound 0xFFFFFF in
  let* sends = list_size (int_range 1 60) (pair (int_bound 3) gen_frame) in
  return (seed, sends)

let drive cfg sends =
  let d, inner = dummy_inner () in
  let h, tr = Nemesis.wrap cfg inner in
  Transport.set_handler tr (fun _ -> ());
  List.iter (fun (dst, frame) -> Transport.send tr ~dst frame) sends;
  fire_timers d;
  let s = Nemesis.stats h in
  ( Nemesis.schedule h,
    sent_payloads d,
    List.rev d.raws,
    (s.st_passed, s.st_dropped, s.st_delayed, s.st_duplicated, s.st_corrupted)
  )

let qcheck_schedule_deterministic =
  QCheck.Test.make ~count:200 ~name:"fault schedules are byte-identical"
    (QCheck.make gen_flow) (fun (seed, sends) ->
      let cfg = Nemesis.gen ~seed ~n:4 in
      let sched_a, sent_a, raws_a, stats_a = drive cfg sends in
      let sched_b, sent_b, raws_b, stats_b = drive cfg sends in
      sched_a = sched_b && sent_a = sent_b && raws_a = raws_b
      && stats_a = stats_b)

(* --- termination discipline --------------------------------------------- *)

let sample_app =
  Wire.App { epoch = 1; msg_id = 5; src = 2; dv = [| 1; 2 |]; index = 0 }

let all_partition ~attempts =
  {
    Nemesis.default with
    seed = 3;
    partitions =
      [
        { Nemesis.pt_from = 0; pt_to = 1; pt_start = 0; pt_len = 1000;
          pt_attempts = attempts };
      ];
  }

let test_partition_punch_through () =
  let d, inner = dummy_inner () in
  let h, tr = Nemesis.wrap (all_partition ~attempts:2) inner in
  Transport.set_handler tr (fun _ -> ());
  let cmd = Wire.Cmd { seq = 1; now = 0.0; cmd = Wire.C_checkpoint } in
  for _ = 1 to 3 do
    Transport.send tr ~dst:1 cmd
  done;
  let s = Nemesis.stats h in
  Alcotest.(check int) "first two transmissions suppressed" 2 s.st_dropped;
  Alcotest.(check int) "third punches through" 1 (List.length d.sent);
  (* a different link is unaffected *)
  Transport.send tr ~dst:2 cmd;
  Alcotest.(check int) "other links pass" 2 (List.length d.sent)

let test_partition_delays_app () =
  let d, inner = dummy_inner () in
  let h, tr = Nemesis.wrap (all_partition ~attempts:2) inner in
  Transport.set_handler tr (fun _ -> ());
  Transport.send tr ~dst:1 sample_app;
  let s = Nemesis.stats h in
  Alcotest.(check int) "app not dropped" 0 s.st_dropped;
  Alcotest.(check int) "app held" 1 s.st_delayed;
  Alcotest.(check int) "nothing sent yet" 0 (List.length d.sent);
  fire_timers d;
  Alcotest.(check int) "released after the hold" 1 (List.length d.sent)

let test_app_never_dropped () =
  (* certain drop for every frame: control frames die (first attempt),
     App frames degrade to a delay and all come out the other end *)
  let cfg = { Nemesis.default with seed = 9; drop_p = 1.0 } in
  let d, inner = dummy_inner () in
  let h, tr = Nemesis.wrap cfg inner in
  Transport.set_handler tr (fun _ -> ());
  for msg_id = 0 to 19 do
    Transport.send tr ~dst:1
      (Wire.App { epoch = 1; msg_id; src = 0; dv = [| 0 |]; index = 0 })
  done;
  let s = Nemesis.stats h in
  Alcotest.(check int) "no app dropped" 0 s.st_dropped;
  Alcotest.(check int) "all held" 20 s.st_delayed;
  fire_timers d;
  Alcotest.(check int) "all delivered" 20 (List.length d.sent);
  (* a control frame: dropped once, retransmission passes *)
  let cmd = Wire.Cmd { seq = 7; now = 0.0; cmd = Wire.C_checkpoint } in
  Transport.send tr ~dst:1 cmd;
  Alcotest.(check int) "control frame dropped" 1 (Nemesis.stats h).st_dropped;
  Transport.send tr ~dst:1 cmd;
  Alcotest.(check int) "retransmission passes" 21 (List.length d.sent)

let test_ident_exempt () =
  let cfg = { Nemesis.default with seed = 9; drop_p = 1.0 } in
  let d, inner = dummy_inner () in
  let h, tr = Nemesis.wrap cfg inner in
  Transport.set_handler tr (fun _ -> ());
  Transport.send tr ~dst:1 (Wire.Ident { pid = 0 });
  Alcotest.(check int) "ident passes untouched" 1 (List.length d.sent);
  Alcotest.(check int) "and is not scheduled" 0
    (List.length (Nemesis.schedule h))

let test_flush_held () =
  let cfg = { Nemesis.default with seed = 9; delay_p = 1.0 } in
  let d, inner = dummy_inner () in
  let h, tr = Nemesis.wrap cfg inner in
  Transport.set_handler tr (fun _ -> ());
  Transport.send tr ~dst:1 sample_app;
  Alcotest.(check int) "held" 1 (Nemesis.stats h).st_delayed;
  Nemesis.flush_held h;
  fire_timers d;
  Alcotest.(check int) "flushed frames never surface" 0 (List.length d.sent)

let test_corruption_precedes_frame () =
  let cfg = { Nemesis.default with seed = 2; corrupt_p = 1.0 } in
  let d, inner = dummy_inner () in
  let _, tr = Nemesis.wrap cfg inner in
  Transport.set_handler tr (fun _ -> ());
  Transport.send tr ~dst:1 sample_app;
  Alcotest.(check int) "garbled copy on the raw hatch" 1 (List.length d.raws);
  Alcotest.(check int) "intact frame still sent" 1 (List.length d.sent);
  let _, raw = List.hd d.raws in
  match Wire.decode (Bytes.of_string raw) with
  | Ok _ -> Alcotest.fail "garbled copy decoded"
  | Error _ -> ()

(* --- config serialization ----------------------------------------------- *)

let qcheck_config_roundtrip =
  QCheck.Test.make ~count:300 ~name:"config to_string/of_string roundtrip"
    QCheck.(pair (int_bound 0xFFFFFF) (int_range 1 6))
    (fun (seed, n) ->
      let cfg = Nemesis.gen ~seed ~n in
      match Nemesis.of_string (Nemesis.to_string cfg) with
      | Error e -> QCheck.Test.fail_reportf "of_string: %s" e
      | Ok cfg' -> String.equal (Nemesis.to_string cfg) (Nemesis.to_string cfg'))

let test_of_string_decimal () =
  (* hand-written specs use plain decimals *)
  match Nemesis.of_string "nms1 seed=0x2a drop=0.5 part=0>1@0+3x2,-1>2@4+1x1" with
  | Error e -> Alcotest.failf "of_string: %s" e
  | Ok cfg ->
    Alcotest.(check int) "seed" 42 cfg.Nemesis.seed;
    Alcotest.(check (float 1e-9)) "drop" 0.5 cfg.Nemesis.drop_p;
    Alcotest.(check int) "partitions" 2 (List.length cfg.Nemesis.partitions);
    (match Nemesis.of_string "nms1 drop=oops" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "garbage accepted")

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_schedule_deterministic;
    Alcotest.test_case "partition punches through after pt_attempts" `Quick
      test_partition_punch_through;
    Alcotest.test_case "partition delays app frames instead of dropping"
      `Quick test_partition_delays_app;
    Alcotest.test_case "app frames are never dropped" `Quick
      test_app_never_dropped;
    Alcotest.test_case "ident preamble is exempt" `Quick test_ident_exempt;
    Alcotest.test_case "flush_held discards delayed frames" `Quick
      test_flush_held;
    Alcotest.test_case "corruption precedes the intact frame" `Quick
      test_corruption_precedes_frame;
    QCheck_alcotest.to_alcotest qcheck_config_roundtrip;
    Alcotest.test_case "of_string accepts decimals, rejects garbage" `Quick
      test_of_string_decimal;
  ]
