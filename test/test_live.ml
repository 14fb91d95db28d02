(* Live-runtime tests: the committed smoke scenario runs against both
   transport backends — the deterministic simulator cluster and a real
   multi-process TCP cluster on loopback — and the black-box checker
   holds each run against the simulator replay (per-op state, transcript,
   recovery reports, recovered store directories).  The scenario crashes
   two different processes, so both runs exercise kill + durable-store
   recovery; on the TCP backend the kill is a real SIGKILL. *)

module Scenario = Rdt_verify.Scenario
module Harness = Rdt_verify.Harness
module Oracles = Rdt_verify.Oracles
module Transport = Rdt_transport.Transport
module Wire = Rdt_transport.Wire
module Nemesis = Rdt_transport.Nemesis
module Live_fuzz = Rdt_live.Live_fuzz
module Fuzz = Rdt_verify.Fuzz

let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else "test/corpus"

(* The TCP tests spawn node processes by exec'ing the CLI (declared as a
   test dep): nodes are always exec'd, never forked (OCaml 5 cannot fork
   a runtime that has started domains). *)
let tcp_backend () =
  if Sys.file_exists Helpers.cli_exe then Rdt_live.Cluster.Exec Helpers.cli_exe
  else Alcotest.skip ()

let smoke_scenario () =
  match Scenario.load (Filename.concat corpus_dir "live_smoke.scn") with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "cannot load live_smoke.scn: %s" e

let fresh_root name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rdtgc-test-%s-%d" name (Unix.getpid ()))
  in
  Harness.rm_rf dir;
  dir

let check_clean what (vs : Oracles.violation list) =
  List.iter (fun v -> Format.eprintf "%s: %a@." what Oracles.pp_violation v) vs;
  Alcotest.(check int) what 0 (List.length vs)

let run_and_check ~name ~crashes run =
  let root = fresh_root name in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf root)
    (fun () ->
      match run ~root with
      | Error e -> Alcotest.failf "%s cluster run failed: %s" name e
      | Ok record ->
        Alcotest.(check int)
          (name ^ " recovery sessions ran")
          crashes
          (List.length record.Rdt_live.Coordinator.rr_reports);
        let scratch = fresh_root (name ^ "-replay") in
        let c =
          Rdt_live.Checker.check ~record ~root ~scratch_dir:scratch ()
        in
        check_clean (name ^ " checker") c.Rdt_live.Checker.violations;
        record)

let crash_count sc =
  List.length
    (List.filter
       (function Scenario.Crash _ -> true | _ -> false)
       sc.Scenario.ops)

let test_sim_cluster () =
  let sc = smoke_scenario () in
  ignore
    (run_and_check ~name:"sim" ~crashes:(crash_count sc) (fun ~root ->
         Rdt_live.Sim_cluster.run ~scenario:sc ~root ()))

let test_sim_deterministic () =
  let sc = smoke_scenario () in
  let one name =
    let root = fresh_root name in
    Fun.protect
      ~finally:(fun () -> Harness.rm_rf root)
      (fun () ->
        match Rdt_live.Sim_cluster.run ~scenario:sc ~root () with
        | Error e -> Alcotest.failf "sim run failed: %s" e
        | Ok r -> r)
  in
  let a = one "det-a" and b = one "det-b" in
  Alcotest.(check string) "identical transcripts"
    a.Rdt_live.Coordinator.rr_trace b.Rdt_live.Coordinator.rr_trace;
  let states r =
    List.concat_map
      (fun (o : Rdt_live.Coordinator.observation) ->
        List.map
          (fun (pid, st) ->
            Format.asprintf "op%d p%d dv=%a app=%d" o.Rdt_live.Coordinator.obs_op
              pid
              (fun ppf a ->
                Array.iter (fun v -> Format.fprintf ppf "%d," v) a)
              st.Rdt_transport.Wire.st_dv st.Rdt_transport.Wire.st_app)
          o.Rdt_live.Coordinator.obs_states)
      r.Rdt_live.Coordinator.rr_observations
  in
  Alcotest.(check (list string)) "identical observations" (states a) (states b)

let test_tcp_cluster () =
  let sc = smoke_scenario () in
  let backend = tcp_backend () in
  ignore
    (run_and_check ~name:"tcp" ~crashes:(crash_count sc) (fun ~root ->
         Rdt_live.Cluster.run ~scenario:sc ~root ~backend ()))

let test_tcp_stores_survive () =
  (* after a passing TCP run the root holds one real store directory per
     process, and each recovers to a non-empty retained set *)
  let sc = smoke_scenario () in
  let backend = tcp_backend () in
  let root = fresh_root "tcp-stores" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf root)
    (fun () ->
      match Rdt_live.Cluster.run ~scenario:sc ~root ~backend () with
      | Error e -> Alcotest.failf "cluster run failed: %s" e
      | Ok _ ->
        for pid = 0 to sc.Scenario.n - 1 do
          let dir =
            Rdt_live.Node.store_dir (Rdt_live.Cluster.node_dir root pid)
          in
          Alcotest.(check bool)
            (Printf.sprintf "p%d store dir exists" pid)
            true (Sys.file_exists dir);
          let log =
            Rdt_store.Log_store.create ~config:Harness.log_config ~pid ~dir ()
          in
          let recovered =
            Fun.protect
              ~finally:(fun () -> Rdt_store.Log_store.close log)
              (fun () ->
                (Rdt_store.Log_store.recovery log).Rdt_store.Log_store.recovered)
          in
          Alcotest.(check bool)
            (Printf.sprintf "p%d recovers a non-empty set" pid)
            true
            (not (List.is_empty recovered))
        done)

(* Each node exits once the coordinator hangs up, so a TCP run must end
   as soon as the nodes have acknowledged their shutdown — not at the
   reaper's 5 s deadline, which only backs up a node that hangs. *)
let test_tcp_teardown () =
  let sc = smoke_scenario () in
  let backend = tcp_backend () in
  let root = fresh_root "tcp-teardown" in
  let shutdown_at = ref nan in
  let log line =
    if String.equal line "shutting down" then
      shutdown_at := Unix.gettimeofday ()
  in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf root)
    (fun () ->
      match Rdt_live.Cluster.run ~scenario:sc ~root ~backend ~log () with
      | Error e -> Alcotest.failf "cluster run failed: %s" e
      | Ok _ ->
        let teardown = Unix.gettimeofday () -. !shutdown_at in
        if not (teardown < 1.0) then
          Alcotest.failf "teardown took %.2f s (want < 1 s)" teardown)

(* Live processes whose command line runs a node under [root]. *)
let node_processes root =
  let prefix = Filename.concat root "p" in
  let cmdline pid =
    try
      In_channel.with_open_bin
        (Printf.sprintf "/proc/%s/cmdline" pid)
        In_channel.input_all
      |> String.split_on_char '\000'
    with Sys_error _ -> []
  in
  let rec runs_node = function
    | "--dir" :: dir :: _ when String.starts_with ~prefix dir -> true
    | _ :: rest -> runs_node rest
    | [] -> false
  in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter (fun pid ->
         int_of_string_opt pid <> None
         && (match cmdline pid with
            | _ :: "node" :: args -> runs_node args
            | _ -> false))

(* A coordinator that raises (here: its log, at op 1) fails the run like
   an [Error] does, and leaves no node process behind. *)
let test_tcp_coordinator_raises () =
  let sc = smoke_scenario () in
  let backend = tcp_backend () in
  if not (Sys.file_exists "/proc/self/cmdline") then Alcotest.skip ();
  let root = fresh_root "tcp-raises" in
  let log line =
    if String.starts_with ~prefix:"op 1:" line then failwith "log refused op 1"
  in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf root)
    (fun () ->
      (match Rdt_live.Cluster.run ~scenario:sc ~root ~backend ~log () with
      | Ok _ -> Alcotest.fail "a raising coordinator reported success"
      | Error e ->
        if not (Helpers.contains e "log refused op 1") then
          Alcotest.failf "failure not reported: %s" e);
      Alcotest.(check (list string)) "no node process survives" []
        (node_processes root))

(* --- wire-error surfacing on a live socket ------------------------------ *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let k = Unix.write fd b pos len in
    write_all fd b (pos + k) (len - k)
  end

(* Connect a raw client to a fresh TCP endpoint, identify as [pid 5],
   write the crafted byte sequences, and poll until [want] events (or a
   deadline) arrive.  Returns the events in arrival order. *)
let drive_raw ?(close_early = false) ~want chunks =
  let tr = Rdt_live.Tcp_transport.create ~me:9 () in
  let events = ref [] in
  let count = ref 0 in
  Transport.set_handler tr (fun ev ->
      events := ev :: !events;
      incr count);
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Transport.close tr)
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Transport.listen_port tr));
      write_all fd (Wire.encode (Wire.Ident { pid = 5 })) 0
        (Bytes.length (Wire.encode (Wire.Ident { pid = 5 })));
      List.iter (fun b -> write_all fd b 0 (Bytes.length b)) chunks;
      if close_early then Unix.close fd;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while !count < want && Unix.gettimeofday () < deadline do
        ignore (Transport.poll tr ~timeout:0.05)
      done;
      List.rev !events)

let sample_app =
  Wire.App { epoch = 1; msg_id = 3; src = 5; dv = [| 1; 2; 3 |]; index = 1 }

let header_with ~len =
  let b = Bytes.create Wire.header_bytes in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_int32_be b 4 0l;
  b

let check_garbled what ev pred =
  match ev with
  | Transport.Garbled { peer = Some 5; error } when pred error -> ()
  | Transport.Garbled { peer; error } ->
    Alcotest.failf "%s: unexpected Garbled (peer=%s): %s" what
      (match peer with Some p -> string_of_int p | None -> "?")
      (Helpers.wire_error error)
  | _ -> Alcotest.failf "%s: expected a Garbled event" what

let check_peer_down what ev =
  match ev with
  | Transport.Peer_down { peer = 5 } -> ()
  | _ -> Alcotest.failf "%s: expected Peer_down for the garbled link" what

(* A garbage length prefix makes the next frame boundary unknowable: the
   transport must surface the decode error and drop the link. *)
let test_wire_error_kills_link () =
  List.iter
    (fun (what, len, pred) ->
      match drive_raw ~want:2 [ header_with ~len ] with
      | [ g; d ] ->
        check_garbled what g pred;
        check_peer_down what d
      | evs ->
        Alcotest.failf "%s: expected 2 events, got %d" what (List.length evs))
    [
      ( "oversized",
        Wire.max_frame_bytes + 1,
        function Wire.Oversized _ -> true | _ -> false );
      ("bad-length", -10, function Wire.Bad_length _ -> true | _ -> false);
    ]

(* A sound header over a corrupt body costs exactly one frame: the error
   surfaces and the very next (intact) frame on the same socket is
   delivered — the resynchronization contract the nemesis's corruption
   fault relies on. *)
let test_wire_error_resync () =
  List.iter
    (fun (what, style, pred) ->
      let garbled = Nemesis.garble style (Wire.encode sample_app) in
      match drive_raw ~want:2 [ garbled; Wire.encode sample_app ] with
      | [ g; f ] -> begin
        check_garbled what g pred;
        match f with
        | Transport.Frame { src = 5; frame = Wire.App { msg_id = 3; _ } } -> ()
        | _ -> Alcotest.failf "%s: intact frame not delivered after resync" what
      end
      | evs ->
        Alcotest.failf "%s: expected 2 events, got %d" what (List.length evs))
    [
      ( "crc-mismatch",
        Nemesis.Flip_payload,
        function Wire.Crc_mismatch _ -> true | _ -> false );
      ("bad-tag", Nemesis.Forge_tag, function Wire.Bad_tag _ -> true | _ -> false);
      ( "malformed",
        Nemesis.Trailing,
        function Wire.Malformed _ -> true | _ -> false );
    ]

let test_wire_error_truncated () =
  let enc = Wire.encode sample_app in
  let partial = Bytes.sub enc 0 (Bytes.length enc - 3) in
  match drive_raw ~close_early:true ~want:2 [ partial ] with
  | [ g; d ] ->
    check_garbled "truncated" g (function
      | Wire.Truncated _ -> true
      | _ -> false);
    check_peer_down "truncated" d
  | evs -> Alcotest.failf "truncated: expected 2 events, got %d" (List.length evs)

(* Two respawned nodes redial every peer, so after a simultaneous crash
   they dial each other at once.  Whichever link each side ends up
   sending on, frames must arrive both ways. *)
let test_simultaneous_dial () =
  let a = Rdt_live.Tcp_transport.create ~me:1 () in
  let b = Rdt_live.Tcp_transport.create ~me:3 () in
  let got = Array.make 2 [] in
  Transport.set_handler a (fun ev -> got.(0) <- ev :: got.(0));
  Transport.set_handler b (fun ev -> got.(1) <- ev :: got.(1));
  let pump secs =
    let deadline = Unix.gettimeofday () +. secs in
    while Unix.gettimeofday () < deadline do
      ignore (Transport.poll a ~timeout:0.01);
      ignore (Transport.poll b ~timeout:0.01)
    done
  in
  let app src = Wire.App { epoch = 0; msg_id = 1; src; dv = [| 0 |]; index = 0 } in
  let arrived i ~src =
    List.exists
      (function
        | Transport.Frame { src = s; frame = Wire.App _ } -> s = src
        | _ -> false)
      got.(i)
  in
  Fun.protect
    ~finally:(fun () ->
      Transport.close a;
      Transport.close b)
    (fun () ->
      Transport.connect a ~dst:3 ~port:(Transport.listen_port b);
      Transport.connect b ~dst:1 ~port:(Transport.listen_port a);
      pump 0.3;
      Transport.send a ~dst:3 (app 1);
      Transport.send b ~dst:1 (app 3);
      pump 0.3;
      Alcotest.(check bool) "1 -> 3 delivered" true (arrived 1 ~src:1);
      Alcotest.(check bool) "3 -> 1 delivered" true (arrived 0 ~src:3))

(* --- node configuration ------------------------------------------------- *)

(* C_config is an ordinary command: a retransmission gets the cached
   reply without a second boot, a fresh C_config to a booted node is an
   error, and nothing but C_config runs before the boot. *)
let test_node_config () =
  let root = fresh_root "config" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf root)
    (fun () ->
      let cluster = Rdt_transport.Sim_backend.create ~n:1 ~seed:1 in
      let coord =
        Rdt_transport.Sim_backend.transport cluster
          ~me:Transport.coordinator_id
      in
      let inbox = Queue.create () in
      Transport.set_handler coord (fun ev -> Queue.add ev inbox);
      ignore
        (Rdt_live.Node.create
           ~transport:(Rdt_transport.Sim_backend.transport cluster ~me:0)
           ~dir:root ());
      let send seq cmd =
        Transport.send coord ~dst:0 (Wire.Cmd { seq; now = 1.0; cmd })
      in
      (* every Reply the node sends until the simulation goes quiet (the
         Hello timer keeps an unbooted node busy, so the pump is bounded) *)
      let replies () =
        let rec pump k =
          if k > 0 && Transport.poll coord ~timeout:1.0 <> `Idle then
            pump (k - 1)
        in
        pump 50;
        let rs =
          Queue.fold
            (fun acc ev ->
              match ev with
              | Transport.Frame { src = 0; frame = Wire.Reply { seq; reply } } ->
                (seq, reply) :: acc
              | _ -> acc)
            [] inbox
        in
        Queue.clear inbox;
        List.rev rs
      in
      let one what = function
        | [ r ] -> r
        | rs -> Alcotest.failf "%s: %d replies" what (List.length rs)
      in
      let is_error = function Wire.R_error _ -> true | _ -> false in
      let config =
        Wire.C_config
          { n = 1; protocol = "fdas"; epoch = 0; ports = [| 0 |]; sends_ever = 0 }
      in
      send 1 Wire.C_state;
      let seq, r = one "command before boot" (replies ()) in
      Alcotest.(check int) "pre-boot reply seq" 1 seq;
      Alcotest.(check bool) "pre-boot command refused" true (is_error r);
      send 2 config;
      let _, booted = one "config" (replies ()) in
      (match booted with
      | Wire.R_done { events = []; _ } -> ()
      | _ -> Alcotest.fail "config not answered by an empty R_done");
      send 2 config;
      let seq, again = one "retransmitted config" (replies ()) in
      Alcotest.(check int) "retransmission answers its seq" 2 seq;
      Alcotest.(check string) "cached reply"
        (Bytes.to_string (Wire.encode (Wire.Reply { seq; reply = booted })))
        (Bytes.to_string (Wire.encode (Wire.Reply { seq; reply = again })));
      (* a second boot would rebuild the stack and lose this checkpoint *)
      send 3 Wire.C_checkpoint;
      let after_ckpt =
        match one "checkpoint" (replies ()) with
        | _, Wire.R_done { events = [ Wire.T_ckpt _ ]; state } -> state
        | _ -> Alcotest.fail "checkpoint not answered by R_done"
      in
      send 2 config;
      Alcotest.(check int) "stale config ignored" 0 (List.length (replies ()));
      send 4 config;
      let _, r = one "fresh config" (replies ()) in
      Alcotest.(check bool) "fresh config to a booted node refused" true
        (is_error r);
      send 5 Wire.C_state;
      (match one "state" (replies ()) with
      | _, Wire.R_done { events = []; state } ->
        Alcotest.(check (array int)) "booted once: dv kept"
          after_ckpt.Wire.st_dv state.Wire.st_dv;
        Alcotest.(check (array int)) "booted once: store kept"
          after_ckpt.Wire.st_retained state.Wire.st_retained
      | _ -> Alcotest.fail "state query not answered by an empty R_done");
      send 6 Wire.C_shutdown;
      ignore (one "shutdown" (replies ())))

(* A node started over its own non-empty store boots from that store
   alone: it announces a recovery, keeps the retained checkpoints, and
   mints ids past C_config's [sends_ever] with no history shipped. *)
let test_node_respawn_from_store () =
  let root = fresh_root "respawn" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf root)
    (fun () ->
      let n = 2 and me = 0 in
      let cluster = Rdt_transport.Sim_backend.create ~n ~seed:1 in
      let coord =
        Rdt_transport.Sim_backend.transport cluster
          ~me:Transport.coordinator_id
      in
      let tr = Rdt_transport.Sim_backend.transport cluster ~me in
      let inbox = Queue.create () in
      Transport.set_handler coord (fun ev -> Queue.add ev inbox);
      (* the frames node 0 sent the coordinator until the simulation goes
         quiet, oldest first *)
      let frames () =
        let rec pump k =
          if k > 0 && Transport.poll coord ~timeout:1.0 <> `Idle then
            pump (k - 1)
        in
        pump 50;
        let fs =
          Queue.fold
            (fun acc ev ->
              match ev with
              | Transport.Frame { src = 0; frame } -> frame :: acc
              | _ -> acc)
            [] inbox
        in
        Queue.clear inbox;
        List.rev fs
      in
      let command seq cmd =
        Transport.send coord ~dst:me (Wire.Cmd { seq; now = float seq; cmd });
        match
          List.filter_map
            (function
              | Wire.Reply { seq = s; reply } when s = seq -> Some reply
              | _ -> None)
            (frames ())
        with
        | [ r ] -> r
        | rs -> Alcotest.failf "command %d: %d replies" seq (List.length rs)
      in
      let config ~sends_ever =
        Wire.C_config
          { n; protocol = "fdas"; epoch = 0; ports = [| 0; 0 |]; sends_ever }
      in
      let state_of = function
        | Wire.R_done { state; _ } -> state
        | _ -> Alcotest.fail "not answered by R_done"
      in
      let sent_id = function
        | Wire.R_done { events = [ Wire.T_send { msg_id; _ } ]; _ } -> msg_id
        | _ -> Alcotest.fail "send not answered by one T_send event"
      in
      let hello_recovering () =
        match frames () with
        | Wire.Hello { recovering; _ } :: _ -> recovering
        | _ -> Alcotest.fail "no Hello"
      in
      (* first incarnation: boot fresh, checkpoint, send *)
      ignore (Rdt_live.Node.create ~transport:tr ~dir:root ());
      Alcotest.(check bool) "fresh node announces a fresh start" false
        (hello_recovering ());
      ignore (command 1 (config ~sends_ever:0));
      let before = state_of (command 2 Wire.C_checkpoint) in
      Alcotest.(check int) "first id" me
        (sent_id (command 3 (Wire.C_send { dst = 1 })));
      (* kill it and start another over the same directory *)
      Rdt_transport.Sim_backend.kill cluster ~pid:me;
      ignore (Rdt_live.Node.create ~transport:tr ~dir:root ());
      Alcotest.(check bool) "respawn announces a recovery" true
        (hello_recovering ());
      let k = 5 in
      let booted = state_of (command 4 (config ~sends_ever:k)) in
      Alcotest.(check (array int)) "retained checkpoints recovered"
        before.Wire.st_retained booted.Wire.st_retained;
      (* the live DV right after the last checkpoint: its DV, own entry
         + 1 *)
      Alcotest.(check (array int)) "DV rebuilt from the last checkpoint"
        before.Wire.st_dv booted.Wire.st_dv;
      Alcotest.(check int) "first id after the respawn" ((k * n) + me)
        (sent_id (command 5 (Wire.C_send { dst = 1 }))))

(* --- nemesis corpus ----------------------------------------------------- *)

let load_nemesis name =
  let path = Filename.concat corpus_dir (name ^ ".nms") in
  let ic = open_in path in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match Nemesis.of_string line with
  | Ok cfg -> cfg
  | Error e -> Alcotest.failf "cannot parse %s.nms: %s" name e

let load_scenario name =
  match Scenario.load (Filename.concat corpus_dir (name ^ ".scn")) with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "cannot load %s.scn: %s" name e

let replay_pair ~backend name =
  let sc = load_scenario name in
  let nemesis = load_nemesis name in
  let root = fresh_root ("nms-" ^ name) in
  Fun.protect
    ~finally:(fun () ->
      Harness.rm_rf root;
      Harness.rm_rf (root ^ ".replay"))
    (fun () ->
      match (Live_fuzz.arm ~backend ~root ()).Fuzz.run nemesis sc with
      | Error e -> Alcotest.failf "%s run failed: %s" name e
      | Ok vs -> check_clean (name ^ " oracles") vs)

let nemesis_corpus =
  [
    "live_nemesis_partition";
    "live_nemesis_dup";
    "live_nemesis_delay";
    (* a killed incarnation's late readiness answer must not stand in for
       the respawned node's boot *)
    "live_stale_ready";
    (* a node->coordinator partition must not swallow every readiness
       answer: retries punch through like any command's *)
    "live_ready_partition";
  ]

let test_nemesis_corpus_sim () =
  List.iter (replay_pair ~backend:Live_fuzz.Sim) nemesis_corpus

let test_nemesis_corpus_tcp () =
  let backend = Live_fuzz.Live (tcp_backend ()) in
  replay_pair ~backend "live_nemesis_partition"

(* --- coordinator retry under partition ---------------------------------- *)

(* Regression for the command-loop retry: a directed partition between
   the coordinator and node 0 (both ways, healing after 2 suppressed
   transmissions per frame) must be ridden out by retransmission — the
   run completes and still matches the replay, and the nemesis really
   did drop frames. *)
let test_partition_heal () =
  let sc = smoke_scenario () in
  let part ~from ~to_ =
    { Nemesis.pt_from = from; pt_to = to_; pt_start = 0; pt_len = 4;
      pt_attempts = 2 }
  in
  let nemesis =
    {
      Nemesis.default with
      seed = 5;
      partitions =
        [
          part ~from:Transport.coordinator_id ~to_:0;
          part ~from:0 ~to_:Transport.coordinator_id;
        ];
    }
  in
  let handles = ref [] in
  let root = fresh_root "heal" in
  Fun.protect
    ~finally:(fun () ->
      Harness.rm_rf root;
      Harness.rm_rf (root ^ ".replay"))
    (fun () ->
      let record =
        match
          Rdt_live.Sim_cluster.run ~scenario:sc ~root ~nemesis
            ~on_nemesis:(fun hs -> handles := hs) ()
        with
        | Error e -> Alcotest.failf "partitioned run failed: %s" e
        | Ok r -> r
      in
      let scratch = root ^ ".replay" in
      let c = Rdt_live.Checker.check ~record ~root ~scratch_dir:scratch () in
      check_clean "partition-heal checker" c.Rdt_live.Checker.violations;
      let dropped =
        List.fold_left
          (fun acc h -> acc + (Nemesis.stats h).Nemesis.st_dropped)
          0 !handles
      in
      Alcotest.(check bool) "the partition suppressed transmissions" true
        (dropped > 0))

(* --- the injected duplicate-delivery bug -------------------------------- *)

(* The campaign's acceptance bar: with the test-only delivery-duplication
   fault switched on, the oracles catch it, and the committed shrunk
   reproducer pins it forever. *)
let with_dup_deliver f =
  Unix.putenv "RDTGC_TEST_DUP_DELIVER" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "RDTGC_TEST_DUP_DELIVER" "") f

let test_dup_bug_campaign_catches () =
  let root = fresh_root "dup-campaign" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf root)
    (fun () ->
      let report =
        Fuzz.campaign ~shrink:false ~seed:7 ~runs:1 ~max_procs:4
          (Live_fuzz.arm ~mutate_deliver:true ~backend:Live_fuzz.Sim ~root ())
      in
      Alcotest.(check bool) "mutated cluster caught" false
        (Fuzz.passed report))

let test_dup_bug_reproducer () =
  let sc = load_scenario "live_dup_bug.min" in
  let nemesis = Nemesis.default in
  let run () =
    let root = fresh_root "dup-min" in
    Fun.protect
      ~finally:(fun () ->
        Harness.rm_rf root;
        Harness.rm_rf (root ^ ".replay"))
      (fun () ->
        let arm = Live_fuzz.arm ~backend:Live_fuzz.Sim ~root () in
        match arm.Fuzz.run nemesis sc with
        | Error e -> Alcotest.failf "reproducer run failed: %s" e
        | Ok vs -> vs)
  in
  let buggy = with_dup_deliver run in
  Alcotest.(check bool) "reproducer catches the duplication" true
    (not (List.is_empty buggy));
  check_clean "reproducer is clean without the bug" (run ())

(* --- pinned corpus records ----------------------------------------------- *)

(* Every live corpus scenario runs on the simulator cluster under its
   committed fault schedule (a transparent nemesis when it has none), and
   the MD5 of a printed form of the run record and of every endpoint's
   fault schedule is pinned.  The commands the coordinator sends, their
   order and their seqs all feed these digests, so any change to the
   recovery session's wire traffic shows up here. *)

let live_corpus () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"live_" f && Filename.check_suffix f ".scn")
  |> List.map Filename.chop_extension
  |> List.sort compare

let print_record (r : Rdt_live.Coordinator.run_record) =
  let b = Buffer.create 4096 in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  List.iter
    (fun (o : Rdt_live.Coordinator.observation) ->
      List.iter
        (fun (pid, (st : Wire.state)) ->
          Printf.bprintf b "op%d p%d dv=%s uc=%s retained=%s app=%d\n"
            o.Rdt_live.Coordinator.obs_op pid (ints st.Wire.st_dv)
            (String.concat ","
               (Array.to_list
                  (Array.map
                     (function Some i -> string_of_int i | None -> "_")
                     st.Wire.st_uc)))
            (ints st.Wire.st_retained) st.Wire.st_app)
        o.Rdt_live.Coordinator.obs_states)
    r.Rdt_live.Coordinator.rr_observations;
  Buffer.add_string b r.Rdt_live.Coordinator.rr_trace;
  List.iter
    (fun rep ->
      Buffer.add_string b
        (Format.asprintf "%a\n" Rdt_recovery.Session.pp_report rep))
    r.Rdt_live.Coordinator.rr_reports;
  Buffer.contents b

let pinned_corpus_digests =
  [
    ( "live_dup_bug.min",
      "471464a62a0ae883a40f9742b328b687",
      "93e89325a26ed95f880abe2e0b1107ed" );
    ( "live_nemesis_delay",
      "3967db394f8bd6ae50274c334db635d1",
      "f9a96ca92ccff1ac239022d944a13b56" );
    ( "live_nemesis_dup",
      "3967db394f8bd6ae50274c334db635d1",
      "a7c7b6dedb119b5f12173008261ae48a" );
    ( "live_nemesis_partition",
      "3967db394f8bd6ae50274c334db635d1",
      "e070519c038e9de06e24c8d48ca51170" );
    ( "live_ready_partition",
      "6d375ddbcdc8ecf796a1bd4eca63167d",
      "0c4d7a2860fb4e9742fb3c339137c229" );
    ( "live_smoke",
      "3967db394f8bd6ae50274c334db635d1",
      "fc36d4f40e25f0bc6d4b1509270de363" );
    ( "live_stale_ready",
      "a1f549b95357bc67a8bbbec15cd0388c",
      "a8e2bae03bf0b12c47a723ca938a67d4" );
  ]

let corpus_digests name =
  let sc = load_scenario name in
  let nemesis =
    if Sys.file_exists (Filename.concat corpus_dir (name ^ ".nms")) then
      load_nemesis name
    else Nemesis.default
  in
  let handles = ref [] in
  let root = fresh_root ("pin-" ^ name) in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf root)
    (fun () ->
      match
        Rdt_live.Sim_cluster.run ~scenario:sc ~root ~nemesis
          ~on_nemesis:(fun hs -> handles := hs)
          ()
      with
      | Error e -> Alcotest.failf "%s run failed: %s" name e
      | Ok record ->
        let schedules =
          List.mapi
            (fun i h -> Printf.sprintf "#%d\n%s\n" i
                (String.concat "\n" (Nemesis.schedule h)))
            !handles
        in
        ( Digest.to_hex (Digest.string (print_record record)),
          Digest.to_hex (Digest.string (String.concat "" schedules)) ))

let test_corpus_pinned () =
  let got =
    List.map
      (fun name ->
        let record, schedule = corpus_digests name in
        (name, record, schedule))
      (live_corpus ())
  in
  Alcotest.(check (list (triple string string string)))
    "run record and fault schedule digests" pinned_corpus_digests got

(* --- campaign determinism ----------------------------------------------- *)

let test_campaign_deterministic () =
  let one name =
    let buf = Buffer.create 1024 in
    let root = fresh_root name in
    Fun.protect
      ~finally:(fun () ->
        Harness.rm_rf root;
        Harness.rm_rf (Filename.concat root "run" ^ ".replay"))
      (fun () ->
        ignore
          (Fuzz.campaign ~shrink:false
             ~log:(fun s ->
               Buffer.add_string buf s;
               Buffer.add_char buf '\n')
             ~seed:11 ~runs:2 ~max_procs:3
             (Live_fuzz.arm ~backend:Live_fuzz.Sim ~root ()));
        Buffer.contents buf)
  in
  (* distinct roots: the log must be a pure function of the arguments *)
  let a = one "camp-a" and b = one "camp-b" in
  Alcotest.(check string) "byte-identical campaign logs" a b

let suite =
  [
    Alcotest.test_case "sim cluster passes the black-box checker" `Quick
      test_sim_cluster;
    Alcotest.test_case "sim cluster runs are deterministic" `Quick
      test_sim_deterministic;
    Alcotest.test_case "tcp cluster passes the black-box checker (SIGKILL + \
                        recovery)" `Slow test_tcp_cluster;
    Alcotest.test_case "tcp stores recover after the run" `Slow
      test_tcp_stores_survive;
    Alcotest.test_case "tcp run ends within 1 s of shutting down" `Slow
      test_tcp_teardown;
    Alcotest.test_case "tcp nodes die with a raising coordinator" `Slow
      test_tcp_coordinator_raises;
    Alcotest.test_case "garbage length prefix surfaces and drops the link"
      `Quick test_wire_error_kills_link;
    Alcotest.test_case "corrupt body surfaces and resynchronizes" `Quick
      test_wire_error_resync;
    Alcotest.test_case "mid-frame hangup surfaces as Truncated" `Quick
      test_wire_error_truncated;
    Alcotest.test_case "simultaneous dial keeps both directions" `Quick
      test_simultaneous_dial;
    Alcotest.test_case "node boots once, on C_config only" `Quick
      test_node_config;
    Alcotest.test_case "respawned node boots from its store" `Quick
      test_node_respawn_from_store;
    Alcotest.test_case "nemesis corpus replays clean on the simulator" `Quick
      test_nemesis_corpus_sim;
    Alcotest.test_case "nemesis corpus replays clean over TCP" `Slow
      test_nemesis_corpus_tcp;
    Alcotest.test_case "coordinator retry rides out a healing partition"
      `Quick test_partition_heal;
    Alcotest.test_case "campaign catches the injected duplicate delivery"
      `Quick test_dup_bug_campaign_catches;
    Alcotest.test_case "committed dup-bug reproducer still bites" `Quick
      test_dup_bug_reproducer;
    Alcotest.test_case "corpus run records and fault schedules are pinned"
      `Quick test_corpus_pinned;
    Alcotest.test_case "campaign logs are byte-identical across runs" `Quick
      test_campaign_deterministic;
  ]
