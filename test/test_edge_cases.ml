(* Corner cases across modules that the main suites do not reach. *)

module Ccp = Rdt_ccp.Ccp
module Trace = Rdt_ccp.Trace
module Zigzag = Rdt_ccp.Zigzag
module Script = Rdt_scenarios.Script
module Figures = Rdt_scenarios.Figures
module Protocol = Rdt_protocols.Protocol
module Middleware = Rdt_protocols.Middleware
module Stable_store = Rdt_storage.Stable_store
module Session = Rdt_recovery.Session
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Engine = Rdt_sim.Engine

let test_zigzag_empty_sequence () =
  let f = Figures.figure1 () in
  Alcotest.(check bool) "empty sequence is not a path" true
    (Zigzag.classify_sequence f.ccp ~from_:{ Ccp.pid = 0; index = 0 }
       ~to_:{ Ccp.pid = 2; index = 1 } []
    = Zigzag.Not_a_path)

let test_zigzag_unknown_message () =
  let f = Figures.figure1 () in
  Alcotest.(check bool) "undelivered/unknown id is not a path" true
    (Zigzag.classify_sequence f.ccp ~from_:{ Ccp.pid = 0; index = 0 }
       ~to_:{ Ccp.pid = 2; index = 1 } [ 999 ]
    = Zigzag.Not_a_path)

let test_zigzag_single_message () =
  let f = Figures.figure1 () in
  (* m1 alone: p0 after s0 to p1 before its volatile *)
  Alcotest.(check bool) "single message C-path" true
    (Zigzag.classify_sequence f.ccp ~from_:{ Ccp.pid = 0; index = 0 }
       ~to_:{ Ccp.pid = 1; index = 2 } [ f.m1 ]
    = Zigzag.Causal_path)

let test_rollback_to_initial () =
  (* no collector: this exercises the middleware rewind mechanics, and
     with RDT-LGC attached s^0 would long be collected *)
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:false () in
  Script.checkpoint s 0;
  Script.checkpoint s 0;
  let mw = Script.middleware s 0 in
  Middleware.rollback mw ~to_index:0 ~li:None;
  Alcotest.(check (list int)) "only s^0 left" [ 0 ] (Script.retained s 0);
  Alcotest.(check (array int)) "dv reset and incremented" [| 1; 0 |]
    (Script.dv s 0);
  (* execution can continue: next checkpoint is s^1 again *)
  Script.checkpoint s 0;
  Alcotest.(check (list int)) "re-takes s^1" [ 0; 1 ] (Script.retained s 0)

let test_double_rollback () =
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:false () in
  Script.transfer s ~src:1 ~dst:0;
  Script.checkpoint s 0;
  Script.checkpoint s 0;
  let mw = Script.middleware s 0 in
  Middleware.rollback mw ~to_index:1 ~li:None;
  Middleware.rollback mw ~to_index:0 ~li:None;
  Alcotest.(check (list int)) "settled at s^0" [ 0 ] (Script.retained s 0);
  Alcotest.(check bool) "trace consistent" true
    (Rdt_ccp.Rdt_check.holds (Script.ccp s))

let test_rollback_to_missing_checkpoint () =
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:true () in
  Script.checkpoint s 0;
  let mw = Script.middleware s 0 in
  Alcotest.(check bool) "raises" true
    (try
       Middleware.rollback mw ~to_index:7 ~li:None;
       false
     with Invalid_argument _ -> true)

let test_session_all_faulty () =
  let s = Script.create ~n:3 ~protocol:Protocol.fdas ~with_lgc:true () in
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 1;
  Script.transfer s ~src:1 ~dst:2;
  Script.checkpoint s 2;
  let handles =
    Array.init 3 (fun pid ->
        Session.in_memory ~release:(fun ~li:_ -> ()) (Script.middleware s pid))
  in
  let report = Session.run handles ~faulty:[ 0; 1; 2 ] ~knowledge:`Global in
  (* everyone loses at least the volatile checkpoint *)
  Alcotest.(check int) "all processes rolled back" 3
    (List.length report.Session.rolled_back);
  Alcotest.(check bool) "post-state consistent" true
    (Rdt_ccp.Rdt_check.holds (Script.ccp s))

let test_runner_byte_accounting () =
  let cfg = { (Helpers.sim_config_of_case 1) with ckpt_bytes = 7 } in
  let t = Runner.create cfg in
  Runner.run t;
  for pid = 0 to cfg.Sim_config.n - 1 do
    let store = Middleware.store (Runner.middleware t pid) in
    Alcotest.(check int)
      (Printf.sprintf "bytes = 7 * count at p%d" pid)
      (7 * Stable_store.count store)
      (List.fold_left
         (fun acc (e : Stable_store.entry) -> acc + e.size_bytes)
         0 (Stable_store.retained store))
  done

let test_engine_send_to_self () =
  let e = Engine.create ~n:2 ~seed:1 ~net:Rdt_sim.Network.default () in
  let got = ref 0 in
  Engine.set_receiver e 0 (fun ~src _ ->
      if src = 0 then incr got);
  Engine.send e ~src:0 ~dst:0 ();
  Engine.run e;
  Alcotest.(check int) "self-send delivered through the network" 1 !got

let test_engine_bad_destination () =
  let e = Engine.create ~n:2 ~seed:1 ~net:Rdt_sim.Network.default () in
  Alcotest.(check bool) "raises" true
    (try
       Engine.send e ~src:0 ~dst:5 ();
       false
     with Invalid_argument _ -> true)

let test_recovered_process_resumes_workload () =
  (* timers must survive the down window: the process keeps checkpointing
     and sending after repair *)
  let cfg =
    {
      (Helpers.sim_config_of_case 4) with
      duration = 60.0;
      faults = [ { Sim_config.crash_at = 10.0; pid = 1; repair_after = 5.0 } ];
    }
  in
  let t = Runner.create cfg in
  Runner.run t;
  let trace = Runner.trace t in
  let late_activity =
    List.exists
      (fun (ev : Helpers.event) ->
        ev.pid = 1
        &&
        match ev.tag with
        | Trace.Checkpoint ->
          let index = ev.payload in
          index > 0
          && (match Stable_store.find (Middleware.store (Runner.middleware t 1)) ~index with
             | Some e -> e.Stable_store.taken_at > 20.0
             | None -> false)
        | Trace.Send | Trace.Receive -> false)
      (Helpers.events_of trace ~pid:1)
  in
  Alcotest.(check bool) "p1 checkpointed after repair" true late_activity

let test_script_double_delivery_rejected () =
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:false () in
  let m = Script.send s ~src:0 ~dst:1 in
  Script.deliver s m;
  Alcotest.(check bool) "raises" true
    (try
       Script.deliver s m;
       false
     with Invalid_argument _ -> true)

let test_figure2_under_cas () =
  (* checkpoint-after-send also breaks the domino interleaving *)
  let s = Figures.figure2_with_protocol (Helpers.protocol "cas") in
  let ccp = Script.ccp s in
  Alcotest.(check bool) "RDT" true (Rdt_ccp.Rdt_check.holds ccp);
  Alcotest.(check (list string)) "no useless" []
    (List.map
       (fun (c : Ccp.ckpt) -> Printf.sprintf "%d_%d" c.pid c.index)
       (Zigzag.useless ccp))

let test_tracking_volatile_target () =
  (* the volatile checkpoint itself can be a tracking target *)
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:false () in
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 1;
  let archives, live_dvs =
    Helpers.tracking_inputs (Array.init 2 (Script.middleware s))
  in
  let target : Rdt_recovery.Tracking.target =
    { pid = 1; index = 2 (* p1's volatile *) }
  in
  (match
     Rdt_recovery.Tracking.max_consistent_containing ~archives ~live_dvs
       [ target ]
   with
  | Some g ->
    Alcotest.(check int) "volatile kept" 2 g.(1);
    Alcotest.(check bool) "consistent with p0's volatile" true (g.(0) >= 0)
  | None -> Alcotest.fail "no max");
  match
    Rdt_recovery.Tracking.min_consistent_containing ~archives ~live_dvs
      [ target ]
  with
  | Some g ->
    (* p1's volatile depends on s0_p0's interval: p0's component must be
       at least 1 *)
    Alcotest.(check bool) "cause horizon past the dependency" true (g.(0) >= 1)
  | None -> Alcotest.fail "no min"

let test_multi_target_consistency_cross_check () =
  (* two fixed targets, trace fixpoints vs DV closed forms *)
  let s = Script.create ~n:3 ~protocol:Protocol.fdas ~with_lgc:false () in
  Script.checkpoint s 0;
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 1;
  Script.transfer s ~src:1 ~dst:2;
  Script.checkpoint s 2;
  Script.checkpoint s 0;
  let archives, live_dvs =
    Helpers.tracking_inputs (Array.init 3 (Script.middleware s))
  in
  let ccp = Script.ccp s in
  let targets : Rdt_recovery.Tracking.target list =
    [ { pid = 0; index = 1 }; { pid = 2; index = 1 } ]
  in
  let ccp_targets =
    List.map
      (fun (t : Rdt_recovery.Tracking.target) ->
        { Ccp.pid = t.pid; index = t.index })
      targets
  in
  Alcotest.(check (option (array int)))
    "max agrees"
    (Rdt_ccp.Consistency.max_consistent_containing ccp ccp_targets)
    (Rdt_recovery.Tracking.max_consistent_containing ~archives ~live_dvs
       targets);
  Alcotest.(check (option (array int)))
    "min agrees"
    (Rdt_ccp.Consistency.min_consistent_containing ccp ccp_targets)
    (Rdt_recovery.Tracking.min_consistent_containing ~archives ~live_dvs
       targets)

let test_merged_basic_count () =
  let m = Rdt_gc.Merged_fdas.create ~n:2 ~me:0 in
  Alcotest.(check int) "s0 not counted" 0 (Rdt_gc.Merged_fdas.basic_count m);
  Rdt_gc.Merged_fdas.basic_checkpoint m ~now:1.0;
  Alcotest.(check int) "counted" 1 (Rdt_gc.Merged_fdas.basic_count m)

let test_prng_stream_stability () =
  (* the same seed yields the same stream on every call site; pins the
     splitmix64 implementation against accidental change *)
  let t = Rdt_sim.Prng.create ~seed:42 in
  let a = Rdt_sim.Prng.bits64 t in
  let b = Rdt_sim.Prng.bits64 t in
  let t' = Rdt_sim.Prng.create ~seed:42 in
  Alcotest.check Alcotest.int64 "first" a (Rdt_sim.Prng.bits64 t');
  Alcotest.check Alcotest.int64 "second" b (Rdt_sim.Prng.bits64 t');
  Alcotest.(check bool) "values differ" true (a <> b)

let test_large_n_stress () =
  let cfg =
    {
      Sim_config.default with
      n = 24;
      seed = 9;
      duration = 40.0;
      workload =
        {
          Rdt_workload.Workload.default with
          send_mean_interval = 0.5;
          basic_ckpt_mean_interval = 3.0;
        };
    }
  in
  let t = Runner.create cfg in
  Runner.run t;
  Helpers.audit_bound t;
  Helpers.audit_optimality ~exact:true t

let suite =
  [
    Alcotest.test_case "zigzag: empty sequence" `Quick
      test_zigzag_empty_sequence;
    Alcotest.test_case "zigzag: unknown message" `Quick
      test_zigzag_unknown_message;
    Alcotest.test_case "zigzag: single message" `Quick
      test_zigzag_single_message;
    Alcotest.test_case "rollback to the initial checkpoint" `Quick
      test_rollback_to_initial;
    Alcotest.test_case "double rollback" `Quick test_double_rollback;
    Alcotest.test_case "rollback to missing checkpoint" `Quick
      test_rollback_to_missing_checkpoint;
    Alcotest.test_case "session with every process faulty" `Quick
      test_session_all_faulty;
    Alcotest.test_case "runner byte accounting" `Quick
      test_runner_byte_accounting;
    Alcotest.test_case "engine self-send" `Quick test_engine_send_to_self;
    Alcotest.test_case "engine bad destination" `Quick
      test_engine_bad_destination;
    Alcotest.test_case "recovered process resumes workload" `Quick
      test_recovered_process_resumes_workload;
    Alcotest.test_case "script double delivery rejected" `Quick
      test_script_double_delivery_rejected;
    Alcotest.test_case "figure 2 under CAS" `Quick test_figure2_under_cas;
    Alcotest.test_case "tracking with a volatile target" `Quick
      test_tracking_volatile_target;
    Alcotest.test_case "multi-target min/max cross-check" `Quick
      test_multi_target_consistency_cross_check;
    Alcotest.test_case "merged basic count" `Quick test_merged_basic_count;
    Alcotest.test_case "prng stream stability" `Quick
      test_prng_stream_stability;
    Alcotest.test_case "large-n stress (n=24)" `Slow test_large_n_stress;
  ]
