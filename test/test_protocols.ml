(* Unit tests of each protocol's forced-checkpoint rule, plus middleware
   behaviour (dependency-vector bookkeeping, Figure-4-style stores). *)

module Protocol = Rdt_protocols.Protocol
module Control = Rdt_protocols.Control
module Middleware = Rdt_protocols.Middleware
module Script = Rdt_scenarios.Script
module Stable_store = Rdt_storage.Stable_store
module Trace = Rdt_ccp.Trace
module Process_stack = Rdt_recovery.Process_stack
module Dependency_vector = Rdt_causality.Dependency_vector

let control ?(index = 0) dv = Control.make ~dv ~index ()

let test_fdas_rule () =
  let p = Protocol.fdas.Protocol.make ~n:3 ~me:0 in
  let local_dv = [| 1; 0; 0 |] in
  let fresh = control [| 1; 2; 0 |] in
  Alcotest.(check bool) "no send yet: no forced" false
    (p.Protocol.need_forced ~local_dv ~incoming:fresh);
  p.Protocol.note_send ();
  Alcotest.(check bool) "after send: forced on new dep" true
    (p.Protocol.need_forced ~local_dv ~incoming:fresh);
  Alcotest.(check bool) "after send: no forced without new dep" false
    (p.Protocol.need_forced ~local_dv ~incoming:(control [| 1; 0; 0 |]));
  p.Protocol.note_checkpoint ();
  Alcotest.(check bool) "checkpoint resets the send flag" false
    (p.Protocol.need_forced ~local_dv ~incoming:fresh)

let test_fdi_rule () =
  let p = (Helpers.protocol "fdi").Protocol.make ~n:3 ~me:0 in
  let local_dv = [| 1; 0; 0 |] in
  let fresh = control [| 1; 2; 0 |] in
  Alcotest.(check bool) "empty interval: no forced" false
    (p.Protocol.need_forced ~local_dv ~incoming:fresh);
  p.Protocol.note_receive ~incoming:fresh;
  Alcotest.(check bool) "after a receive: forced on new dep" true
    (p.Protocol.need_forced ~local_dv ~incoming:(control [| 1; 3; 0 |]));
  p.Protocol.note_checkpoint ();
  Alcotest.(check bool) "reset" false
    (p.Protocol.need_forced ~local_dv ~incoming:fresh)

let test_bcs_rule () =
  let p = (Helpers.protocol "bcs").Protocol.make ~n:2 ~me:0 in
  let local_dv = [| 1; 0 |] in
  Alcotest.(check int) "initial index" 0 (p.Protocol.control_index ());
  Alcotest.(check bool) "same index: no forced" false
    (p.Protocol.need_forced ~local_dv ~incoming:(control ~index:0 [| 1; 1 |]));
  Alcotest.(check bool) "higher index: forced" true
    (p.Protocol.need_forced ~local_dv ~incoming:(control ~index:3 [| 1; 1 |]));
  p.Protocol.note_checkpoint ();
  Alcotest.(check int) "index grows with checkpoints" 1
    (p.Protocol.control_index ());
  p.Protocol.note_receive ~incoming:(control ~index:5 [| 1; 1 |]);
  Alcotest.(check int) "index adopts the message's" 5
    (p.Protocol.control_index ())

let test_cbr_rule () =
  let p = (Helpers.protocol "cbr").Protocol.make ~n:2 ~me:0 in
  let local_dv = [| 1; 2 |] in
  Alcotest.(check bool) "forced on any new dep, even in a fresh interval"
    true
    (p.Protocol.need_forced ~local_dv ~incoming:(control [| 1; 3 |]));
  Alcotest.(check bool) "not forced on stale message" false
    (p.Protocol.need_forced ~local_dv ~incoming:(control [| 0; 1 |]))

let test_cas_rule () =
  let p = (Helpers.protocol "cas").Protocol.make ~n:2 ~me:0 in
  Alcotest.(check bool) "forces after every send" true
    p.Protocol.force_after_send;
  Alcotest.(check bool) "never forces on receive" false
    (p.Protocol.need_forced ~local_dv:[| 0; 0 |] ~incoming:(control [| 9; 9 |]))

let test_casbr_rule () =
  let p = (Helpers.protocol "casbr").Protocol.make ~n:2 ~me:0 in
  let stale = control [| 0; 0 |] in
  Alcotest.(check bool) "lazy: no send-side forcing" false
    p.Protocol.force_after_send;
  Alcotest.(check bool) "no forced before any send" false
    (p.Protocol.need_forced ~local_dv:[| 1; 0 |] ~incoming:stale);
  p.Protocol.note_send ();
  Alcotest.(check bool) "forced before any receive after a send" true
    (p.Protocol.need_forced ~local_dv:[| 1; 0 |] ~incoming:stale);
  p.Protocol.note_checkpoint ();
  Alcotest.(check bool) "reset by the checkpoint" false
    (p.Protocol.need_forced ~local_dv:[| 1; 0 |] ~incoming:stale)

let test_cas_script () =
  let s = Script.create ~n:2 ~protocol:(Helpers.protocol "cas") ~with_lgc:false () in
  ignore (Script.apply s (Send { id = 0; src = 0; dst = 1 }));
  (* the forced checkpoint follows the send, so the message carries the
     pre-checkpoint interval *)
  Alcotest.(check int) "forced after send" 1 (Script.forced_taken s 0);
  Alcotest.(check (array int)) "dv advanced after the send" [| 2; 0 |]
    (Script.dv s 0);
  ignore (Script.apply s (Deliver 0));
  Alcotest.(check (array int)) "receiver saw interval 1" [| 1; 1 |]
    (Script.dv s 1)

let test_no_forced_rule () =
  let p = (Helpers.protocol "none").Protocol.make ~n:2 ~me:0 in
  Alcotest.(check bool) "never forced" false
    (p.Protocol.need_forced ~local_dv:[| 0; 0 |]
       ~incoming:(control [| 9; 9 |]))

let test_by_id () =
  Alcotest.(check (option string)) "fdas" (Some "fdas")
    (Option.map (fun p -> p.Protocol.id) (Protocol.by_id "fdas"));
  Alcotest.(check bool) "unknown" true (Protocol.by_id "nope" = None);
  Alcotest.(check int) "all listed" 7 (List.length Protocol.all);
  Alcotest.(check int) "five RDT protocols" 5
    (List.length Protocol.rdt_protocols)

(* --- middleware ----------------------------------------------------- *)

let test_middleware_initialization () =
  let trace = Trace.create ~n:2 in
  let mw = Middleware.create ~n:2 ~me:0 ~protocol:Protocol.fdas ~trace () in
  Alcotest.(check int) "s0 stored" 0
    (Stable_store.last_index (Middleware.store mw));
  Alcotest.(check int) "current interval 1" 1
    (Dependency_vector.get (Middleware.dv mw) 0);
  Alcotest.(check int) "no basic checkpoints counted" 0
    (Middleware.basic_count mw)

let test_middleware_dv_flow () =
  let s = Script.create ~n:3 ~protocol:(Helpers.protocol "none") ~with_lgc:false () in
  Script.checkpoint s 0;
  Alcotest.(check (array int)) "own entry incremented" [| 2; 0; 0 |]
    (Script.dv s 0);
  Script.transfer s ~src:0 ~dst:1;
  Alcotest.(check (array int)) "receiver merged" [| 2; 1; 0 |]
    (Script.dv s 1);
  Script.transfer s ~src:1 ~dst:2;
  Alcotest.(check (array int)) "transitive" [| 2; 1; 1 |] (Script.dv s 2)

let test_middleware_stored_dv () =
  (* Equation 2 bookkeeping: DV(s^gamma)[own] = gamma *)
  let s = Script.create ~n:2 ~protocol:(Helpers.protocol "none") ~with_lgc:false () in
  Script.checkpoint s 0;
  Script.checkpoint s 0;
  let store = Script.store s 0 in
  List.iter
    (fun (e : Stable_store.entry) ->
      Alcotest.(check int)
        (Printf.sprintf "dv[own] of s^%d" e.index)
        e.index e.dv.(0))
    (Stable_store.retained store)

let test_middleware_forced_before_delivery () =
  (* FDAS: send then receive a fresh dependency => the forced checkpoint
     must be stored BEFORE the receive is recorded *)
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:false () in
  ignore (Script.apply s (Send { id = 0; src = 0; dst = 1 }));
  Script.checkpoint s 1;
  (* p0 has sent; now p1's message (carrying its new checkpoint) arrives *)
  Script.transfer s ~src:1 ~dst:0;
  Alcotest.(check int) "one forced checkpoint at p0" 1
    (Script.forced_taken s 0);
  (* the forced checkpoint must not include the message's dependency *)
  let store = Script.store s 0 in
  match Stable_store.find store ~index:1 with
  | None -> Alcotest.fail "forced checkpoint missing"
  | Some e ->
    Alcotest.(check int) "stored before merging the message" 0 e.dv.(1)

let test_middleware_rollback () =
  let s = Script.create ~n:2 ~protocol:(Helpers.protocol "none") ~with_lgc:false () in
  Script.checkpoint s 0;
  Script.checkpoint s 0;
  Script.checkpoint s 0;
  let mw = Script.middleware s 0 in
  Middleware.rollback mw ~to_index:1 ~li:None;
  Alcotest.(check (list int)) "later checkpoints gone" [ 0; 1 ]
    (Stable_store.retained_indices (Script.store s 0));
  (* Algorithm 3 lines 5-6: DV restored from s^1 then incremented *)
  Alcotest.(check (array int)) "dv recreated" [| 2; 0 |] (Script.dv s 0);
  Alcotest.(check int) "trace truncated" 1
    (Helpers.last_checkpoint (Script.trace s) ~pid:0)

let test_app_state_restoration () =
  let s = Script.create ~n:2 ~protocol:(Helpers.protocol "none") ~with_lgc:false () in
  let mw = Script.middleware s 0 in
  let state_at_s0 = Middleware.app_state mw in
  Script.transfer s ~src:1 ~dst:0;
  let state_after_msg = Middleware.app_state mw in
  Alcotest.(check bool) "receiving evolves the state" true
    (state_after_msg <> state_at_s0);
  Script.checkpoint s 0 (* s^1 captures state_after_msg *);
  Script.transfer s ~src:1 ~dst:0;
  Script.transfer s ~src:1 ~dst:0;
  Alcotest.(check bool) "more evolution" true
    (Middleware.app_state mw <> state_after_msg);
  Middleware.rollback mw ~to_index:1 ~li:None;
  Alcotest.(check int) "rollback restores the captured state" state_after_msg
    (Middleware.app_state mw);
  Middleware.rollback mw ~to_index:0 ~li:None;
  Alcotest.(check int) "rollback to s^0 restores the initial state"
    state_at_s0 (Middleware.app_state mw)

let test_app_state_deterministic () =
  let run () =
    let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:false () in
    Script.transfer s ~src:0 ~dst:1;
    Script.checkpoint s 1;
    Script.transfer s ~src:1 ~dst:0;
    Middleware.app_state (Script.middleware s 0)
  in
  Alcotest.(check int) "same history, same state" (run ()) (run ())

let test_middleware_checkpoint_counts () =
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:false () in
  Script.checkpoint s 0;
  Script.checkpoint s 0;
  let mw = Script.middleware s 0 in
  Alcotest.(check int) "basic" 2 (Middleware.basic_count mw)

(* Forced-checkpoint ordering: BCS forces when the incoming index is
   higher, and the forced checkpoint lands before the receive. *)
let test_bcs_script () =
  let s = Script.create ~n:2 ~protocol:(Helpers.protocol "bcs") ~with_lgc:false () in
  Script.checkpoint s 0;
  Script.checkpoint s 0 (* p0's BCS index is now 2 *);
  Script.transfer s ~src:0 ~dst:1 (* p1 must force: 2 > 0 *);
  Alcotest.(check int) "p1 forced" 1 (Script.forced_taken s 1)

(* Control's borrow contract: a receive reads the incoming control during
   the call and keeps nothing.  For every built-in protocol, one process
   receives fresh copies while its twin receives the same controls in two
   alternating buffers, each overwritten once its receive returns (as the
   simulator recycles them); a protocol or collector that kept a buffer
   would then read poisoned entries at the next receive and diverge. *)
let test_receive_borrows_incoming () =
  let n = 4 in
  List.iter
    (fun (protocol : Protocol.t) ->
      let make () =
        Process_stack.middleware
          (Process_stack.create ~n ~me:0 ~protocol
             ~trace:(Trace.create ~n) ~with_lgc:protocol.Protocol.rdt ())
      in
      let fresh = make () and recycled = make () in
      let bufs = [| Array.make n 0; Array.make n 0 |] in
      let rng = Random.State.make [| 11 |] in
      let peer = Array.make n 0 in
      for step = 1 to 300 do
        (match Random.State.int rng 4 with
        | 0 ->
          List.iter
            (fun mw -> ignore (Middleware.prepare_send mw ~dst:1 ~now:0.0))
            [ fresh; recycled ]
        | 1 ->
          List.iter (Middleware.basic_checkpoint ~now:0.0) [ fresh; recycled ]
        | _ ->
          let src = 1 + Random.State.int rng (n - 1) in
          for j = 1 to n - 1 do
            if Random.State.bool rng then peer.(j) <- peer.(j) + 1
          done;
          let index = Random.State.int rng (step + 1) in
          let buf = bufs.(step land 1) in
          Middleware.receive fresh
            {
              Middleware.msg_id = step;
              src;
              control = Control.make ~dv:peer ~index ();
            }
            ~now:0.0;
          Middleware.receive recycled
            {
              Middleware.msg_id = step;
              src;
              control = Control.make ~into:buf ~dv:peer ~index ();
            }
            ~now:0.0;
          Array.fill buf 0 n (max_int / 2));
        let id = Printf.sprintf "%s step %d" protocol.Protocol.id step in
        Alcotest.(check int) (id ^ ": forced") (Middleware.forced_count fresh)
          (Middleware.forced_count recycled);
        Alcotest.(check (array int)) (id ^ ": dv")
          (Dependency_vector.to_array (Middleware.dv fresh))
          (Dependency_vector.to_array (Middleware.dv recycled));
        Alcotest.(check (list int)) (id ^ ": retained")
          (Stable_store.retained_indices (Middleware.store fresh))
          (Stable_store.retained_indices (Middleware.store recycled))
      done)
    Protocol.all

let suite =
  [
    Alcotest.test_case "fdas rule" `Quick test_fdas_rule;
    Alcotest.test_case "fdi rule" `Quick test_fdi_rule;
    Alcotest.test_case "bcs rule" `Quick test_bcs_rule;
    Alcotest.test_case "cbr rule" `Quick test_cbr_rule;
    Alcotest.test_case "cas rule" `Quick test_cas_rule;
    Alcotest.test_case "casbr rule" `Quick test_casbr_rule;
    Alcotest.test_case "cas through the middleware" `Quick test_cas_script;
    Alcotest.test_case "no-forced rule" `Quick test_no_forced_rule;
    Alcotest.test_case "registry" `Quick test_by_id;
    Alcotest.test_case "middleware initialization" `Quick
      test_middleware_initialization;
    Alcotest.test_case "middleware dv flow" `Quick test_middleware_dv_flow;
    Alcotest.test_case "middleware stored dv (eq 2)" `Quick
      test_middleware_stored_dv;
    Alcotest.test_case "forced checkpoint precedes delivery" `Quick
      test_middleware_forced_before_delivery;
    Alcotest.test_case "middleware rollback" `Quick test_middleware_rollback;
    Alcotest.test_case "app state restoration" `Quick
      test_app_state_restoration;
    Alcotest.test_case "app state deterministic" `Quick
      test_app_state_deterministic;
    Alcotest.test_case "checkpoint counts" `Quick
      test_middleware_checkpoint_counts;
    Alcotest.test_case "bcs forces on higher index" `Quick test_bcs_script;
    Alcotest.test_case "receive borrows the incoming control" `Quick
      test_receive_borrows_incoming;
  ]
