module Workload = Rdt_workload.Workload
module Prng = Rdt_sim.Prng

let make ?(n = 5) pattern =
  Workload.create
    { Workload.default with pattern; reply_probability = 1.0 }
    ~n
    ~rng:(Prng.create ~seed:7)

let in_range ~n dsts = List.for_all (fun d -> d >= 0 && d < n) dsts

let test_uniform () =
  let w = make Workload.Uniform in
  for _ = 1 to 100 do
    match Workload.destinations w ~me:2 with
    | [ d ] ->
      if d = 2 || d < 0 || d >= 5 then Alcotest.failf "bad destination %d" d
    | l -> Alcotest.failf "expected one destination, got %d" (List.length l)
  done

let test_ring () =
  let w = make Workload.Ring in
  Alcotest.(check (list int)) "successor" [ 3 ] (Workload.destinations w ~me:2);
  Alcotest.(check (list int)) "wraps" [ 0 ] (Workload.destinations w ~me:4)

let test_pipeline () =
  let w = make Workload.Pipeline in
  Alcotest.(check (list int)) "forward" [ 3 ] (Workload.destinations w ~me:2);
  Alcotest.(check (list int)) "sink is silent" [] (Workload.destinations w ~me:4)

let test_broadcast () =
  let w = make Workload.Broadcast in
  Alcotest.(check (list int)) "everyone else" [ 0; 1; 3; 4 ]
    (Workload.destinations w ~me:2)

let test_client_server () =
  let w = make (Workload.Client_server { servers = 2 }) in
  for _ = 1 to 50 do
    (match Workload.destinations w ~me:3 with
    | [ d ] when d < 2 -> ()
    | l -> Alcotest.failf "client must call a server, got %d dests" (List.length l));
    match Workload.destinations w ~me:0 with
    | [ 1 ] | [] -> ()
    | l -> Alcotest.failf "server gossip wrong: %d dests" (List.length l)
  done

let test_replies () =
  let w = make Workload.Uniform in
  Alcotest.(check (list int)) "uniform replies to sender" [ 3 ]
    (Workload.reply_destinations w ~me:1 ~src:3);
  let w = make (Workload.Client_server { servers = 2 }) in
  Alcotest.(check (list int)) "server answers client" [ 4 ]
    (Workload.reply_destinations w ~me:0 ~src:4);
  (match Workload.reply_destinations w ~me:3 ~src:1 with
  | [ d ] when d < 2 -> ()
  | _ -> Alcotest.fail "client follow-up must hit a server");
  Alcotest.(check (list int)) "no self replies" []
    (Workload.reply_destinations w ~me:2 ~src:2)

let test_reply_probability_zero () =
  let w =
    Workload.create
      { Workload.default with reply_probability = 0.0 }
      ~n:4
      ~rng:(Prng.create ~seed:3)
  in
  for _ = 1 to 50 do
    Alcotest.(check (list int)) "never replies" []
      (Workload.reply_destinations w ~me:1 ~src:0)
  done

let test_delays_positive () =
  let w = make Workload.Uniform in
  for _ = 1 to 100 do
    if Workload.next_send_delay w ~me:0 <= 0.0 then Alcotest.fail "send delay";
    if Workload.next_basic_ckpt_delay w ~me:0 <= 0.0 then
      Alcotest.fail "ckpt delay"
  done

let test_destinations_in_range_all_patterns () =
  List.iter
    (fun pattern ->
      let w = make pattern in
      for me = 0 to 4 do
        Alcotest.(check bool)
          (Workload.pattern_name pattern)
          true
          (in_range ~n:5 (Workload.destinations w ~me))
      done)
    [
      Workload.Uniform;
      Workload.Ring;
      Workload.Pipeline;
      Workload.Broadcast;
      Workload.Client_server { servers = 2 };
      Workload.Bursty { burst = 3 };
    ]

let test_bursty () =
  let w = make (Workload.Bursty { burst = 4 }) in
  for me = 0 to 4 do
    let dsts = Workload.destinations w ~me in
    Alcotest.(check int) "burst size" 4 (List.length dsts);
    Alcotest.(check bool) "no self" true (List.for_all (fun d -> d <> me) dsts)
  done;
  Alcotest.(check (list int)) "replies to sender" [ 2 ]
    (Workload.reply_destinations w ~me:0 ~src:2)

let test_pattern_parsing () =
  Alcotest.(check bool) "uniform" true
    (Workload.pattern_of_string "uniform" = Some Workload.Uniform);
  Alcotest.(check bool) "client-server" true
    (Workload.pattern_of_string "client-server:3"
    = Some (Workload.Client_server { servers = 3 }));
  Alcotest.(check bool) "bad count" true
    (Workload.pattern_of_string "client-server:0" = None);
  Alcotest.(check bool) "bursty" true
    (Workload.pattern_of_string "bursty:3" = Some (Workload.Bursty { burst = 3 }));
  Alcotest.(check bool) "bad burst" true
    (Workload.pattern_of_string "bursty:0" = None);
  Alcotest.(check bool) "unknown" true (Workload.pattern_of_string "mesh" = None);
  (* round-trip *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Workload.pattern_name p)
        true
        (Workload.pattern_of_string (Workload.pattern_name p) = Some p))
    [ Workload.Uniform; Workload.Ring; Workload.Client_server { servers = 2 } ]

let test_create_validation () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "n < 2" true
    (bad (fun () ->
         ignore
           (Workload.create Workload.default ~n:1 ~rng:(Prng.create ~seed:1))));
  Alcotest.(check bool) "servers >= n" true
    (bad (fun () ->
         ignore
           (Workload.create
              {
                Workload.default with
                pattern = Workload.Client_server { servers = 4 };
              }
              ~n:3 ~rng:(Prng.create ~seed:1))))

let suite =
  [
    Alcotest.test_case "uniform" `Quick test_uniform;
    Alcotest.test_case "ring" `Quick test_ring;
    Alcotest.test_case "pipeline" `Quick test_pipeline;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "client-server" `Quick test_client_server;
    Alcotest.test_case "bursty" `Quick test_bursty;
    Alcotest.test_case "replies" `Quick test_replies;
    Alcotest.test_case "reply probability zero" `Quick
      test_reply_probability_zero;
    Alcotest.test_case "delays positive" `Quick test_delays_positive;
    Alcotest.test_case "destinations in range" `Quick
      test_destinations_in_range_all_patterns;
    Alcotest.test_case "pattern parsing" `Quick test_pattern_parsing;
    Alcotest.test_case "create validation" `Quick test_create_validation;
  ]
