(* RDT-LGC: the paper's Figure 4 execution, the Figure 5 worst case, the
   rollback algorithm (Algorithm 3), and property tests of Theorems 3-5
   against the trace-based oracle. *)

module Rdt_lgc = Rdt_gc.Rdt_lgc
module Oracle = Rdt_gc.Oracle
module Script = Rdt_scenarios.Script
module Figures = Rdt_scenarios.Figures
module Protocol = Rdt_protocols.Protocol
module Middleware = Rdt_protocols.Middleware
module Stable_store = Rdt_storage.Stable_store
module Ccp = Rdt_ccp.Ccp

let uc_c = Alcotest.(array (option int))

(* --- Figure 4 --------------------------------------------------------- *)

let test_figure4_final_state () =
  let s = Figures.figure4 () in
  (* paper p1 = pid 0: only s^0, knows nothing *)
  Alcotest.(check (array int)) "p0 dv" [| 1; 0; 0 |] (Script.dv s 0);
  Alcotest.check uc_c "p0 uc" [| Some 0; None; None |] (Script.uc s 0);
  (* paper p2 = pid 1 *)
  Alcotest.(check (array int)) "p1 dv" [| 1; 4; 2 |] (Script.dv s 1);
  Alcotest.check uc_c "p1 uc" [| Some 0; Some 3; Some 1 |] (Script.uc s 1);
  (* paper p3 = pid 2 *)
  Alcotest.(check (array int)) "p2 dv" [| 1; 4; 4 |] (Script.dv s 2);
  Alcotest.check uc_c "p2 uc" [| Some 0; Some 3; Some 3 |] (Script.uc s 2)

let test_figure4_eliminations () =
  let s = Figures.figure4 () in
  (* paper: s^2_2, s^1_3, s^2_3 eliminated *)
  Alcotest.(check (list int)) "p1 retains" [ 0; 1; 3 ] (Script.retained s 1);
  Alcotest.(check (list int)) "p2 retains" [ 0; 3 ] (Script.retained s 2);
  Alcotest.(check (list int)) "p0 retains" [ 0 ] (Script.retained s 0);
  let total_eliminated =
    List.fold_left
      (fun acc pid ->
        acc
        + (Stable_store.stats (Script.store s pid)).Stable_store.eliminated_total)
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check int) "three eliminated in total" 3 total_eliminated

let test_figure4_no_forced () =
  let s = Figures.figure4 () in
  List.iter
    (fun pid ->
      Alcotest.(check int)
        (Printf.sprintf "p%d forced" pid)
        0 (Script.forced_taken s pid))
    [ 0; 1; 2 ]

let test_figure4_is_rdt () =
  let s = Figures.figure4 () in
  Alcotest.(check bool) "RD-trackable" true
    (Rdt_ccp.Rdt_check.holds (Script.ccp s))

let test_figure4_s1_p1_obsolete_but_retained () =
  let s = Figures.figure4 () in
  let ccp = Script.ccp s in
  (* the paper's point: s^1 of (paper) p2 is obsolete, yet causal knowledge
     cannot identify it — RDT-LGC keeps it *)
  Alcotest.(check bool) "oracle says obsolete" true
    (Oracle.is_obsolete ccp { Ccp.pid = 1; index = 1 });
  Alcotest.(check bool) "still stored" true
    (Stable_store.mem (Script.store s 1) ~index:1)

let test_figure4_safety_and_optimality () =
  let s = Figures.figure4 () in
  let ccp = Script.ccp s in
  (* safety: everything eliminated is obsolete *)
  Helpers.fail_on_first
    (Rdt_verify.Oracles.safety ~stack:(Script.stack s) ~ccp ~op:(-1));
  (* the eliminated ones are exactly the oracle-obsolete minus s^1_p1 *)
  let obsolete =
    List.sort compare
      (List.map (fun (c : Ccp.ckpt) -> (c.pid, c.index)) (Oracle.obsolete ccp))
  in
  Alcotest.(check (list (pair int int)))
    "oracle set" [ (1, 1); (1, 2); (2, 1); (2, 2) ] obsolete

(* --- Figure 5 / worst case ------------------------------------------- *)

let test_worst_case_bound_reached () =
  List.iter
    (fun n ->
      let s = Figures.worst_case ~n in
      for pid = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "n=%d p%d retains n" n pid)
          n
          (List.length (Script.retained s pid))
      done)
    [ 2; 3; 4; 6; 8 ]

let test_worst_case_transient () =
  let n = 4 in
  let s = Figures.worst_case ~n in
  (* all processes take one more checkpoint: n+1 transiently, n after *)
  for pid = 0 to n - 1 do
    Script.checkpoint s pid
  done;
  for pid = 0 to n - 1 do
    let store = Script.store s pid in
    Alcotest.(check int)
      (Printf.sprintf "p%d settles back to n" pid)
      n (Stable_store.count store);
    Alcotest.(check int)
      (Printf.sprintf "p%d peaked at n+1" pid)
      (n + 1)
      (Stable_store.stats store).Stable_store.peak_count
  done

let test_worst_case_no_forced_and_rdt () =
  let s = Figures.worst_case ~n:5 in
  for pid = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "p%d no forced" pid)
      0 (Script.forced_taken s pid)
  done;
  Alcotest.(check bool) "RD-trackable" true
    (Rdt_ccp.Rdt_check.holds (Script.ccp s))

let test_worst_case_nothing_collectable () =
  (* the worst case is worst *for causal knowledge*: everything RDT-LGC
     retains is exactly what Theorem 2 dictates — an omniscient collector
     could do better (it knows the latest checkpoints the processes have
     not heard about), which is precisely the gap the paper proves no
     asynchronous algorithm can close *)
  let n = 4 in
  let s = Figures.worst_case ~n in
  let ccp = Script.ccp s in
  (* every process retains exactly the Theorem-2 set *)
  Helpers.fail_on_first
    (Rdt_verify.Oracles.optimality ~stack:(Script.stack s) ~ccp ~exact:true
       ~op:(-1));
  (* and the omniscient oracle indeed retains less: the gap is real *)
  Alcotest.(check bool) "omniscient knowledge would collect more" true
    (List.length (Oracle.retained ccp ~pid:0) < n)

(* --- Algorithm 3 (rollback) ------------------------------------------ *)

let test_rollback_rebuilds_uc () =
  (* p0 hears from p1 after s^1 (pinning s^1), then checkpoints on; a
     decentralized rollback to s^1 must rebuild UC from the stored DVs *)
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:true () in
  Script.checkpoint s 0;
  Script.transfer s ~src:1 ~dst:0 (* p0 hears from p1: pins s^1 *);
  Script.checkpoint s 0;
  Script.checkpoint s 0;
  Alcotest.check uc_c "before rollback" [| Some 3; Some 1 |] (Script.uc s 0);
  let mw = Script.middleware s 0 in
  (* decentralized rollback (no LI): Algorithm 3 with the restored DV *)
  Middleware.rollback mw ~to_index:1 ~li:None;
  (* after rolling back to s^1 the restored DV predates the receive from
     p1, so only the last checkpoint s^1 stays referenced; the obsolete
     s^0 is collected by Algorithm 3's final sweep *)
  Alcotest.check uc_c "after rollback" [| Some 1; None |] (Script.uc s 0);
  Alcotest.(check (list int)) "only s^1 retained" [ 1 ] (Script.retained s 0)

let test_rollback_retains_needed () =
  (* checkpoints pinned by different processes must survive a rollback *)
  let s = Script.create ~n:3 ~protocol:Protocol.fdas ~with_lgc:true () in
  Script.transfer s ~src:1 ~dst:0 (* pins s^0 because of p1 *);
  Script.checkpoint s 0;
  Script.transfer s ~src:2 ~dst:0 (* pins s^1 because of p2 *);
  Script.checkpoint s 0;
  Script.checkpoint s 0;
  Alcotest.(check (list int)) "pre-rollback retained" [ 0; 1; 3 ]
    (Script.retained s 0);
  let mw = Script.middleware s 0 in
  Middleware.rollback mw ~to_index:1 ~li:None;
  (* restored DV still knows p1's interval 1: s^0 stays pinned; the
     dependency on p2 arrived after s^1 and was rolled away *)
  Alcotest.check uc_c "uc after rollback" [| Some 1; Some 0; None |]
    (Script.uc s 0);
  Alcotest.(check (list int)) "retained" [ 0; 1 ] (Script.retained s 0)

let test_rollback_with_global_li () =
  (* with global information, stale UC entries are dropped: LI reveals
     that p1 has moved past what p0's DV knows *)
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:true () in
  Script.transfer s ~src:1 ~dst:0 (* p0 pins s^0 because of p1 (interval 1) *);
  Script.checkpoint s 0;
  Script.checkpoint s 0 (* s^1 collected here; retained {0, 2} *);
  (* meanwhile p1 checkpoints twice: its last stable is s^2 *)
  Script.checkpoint s 1;
  Script.checkpoint s 1;
  Alcotest.(check (list int)) "pre-rollback retained" [ 0; 2 ]
    (Script.retained s 0);
  let mw = Script.middleware s 0 in
  (* LI = [last_s+1 for each]: p0 stays at s^2 -> 3; p1 at s^2 -> 3 *)
  Middleware.rollback mw ~to_index:2 ~li:(Some [| 3; 3 |]);
  (* s^2_p1 never preceded anything at p0, so nothing is retained because
     of p1 anymore; s^0 becomes collectable *)
  Alcotest.check uc_c "uc with LI" [| Some 2; None |] (Script.uc s 0);
  Alcotest.(check (list int)) "retained" [ 2 ] (Script.retained s 0)

let test_release_outdated () =
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:true () in
  Script.transfer s ~src:1 ~dst:0 (* pins s^0 because of p1's interval 1 *);
  Script.checkpoint s 0;
  (match Script.collector s 0 with
  | None -> Alcotest.fail "collector missing"
  | Some lgc ->
    Alcotest.check uc_c "pinned" [| Some 1; Some 0 |] (Script.uc s 0);
    (* global knowledge: p1's last interval is now 5 *)
    Rdt_lgc.release_outdated lgc ~li:[| 2; 5 |];
    Alcotest.check uc_c "released" [| Some 1; None |] (Script.uc s 0));
  Alcotest.(check (list int)) "s^0 collected" [ 1 ] (Script.retained s 0)

(* --- the quiescence contract ------------------------------------------ *)

let test_oracle_comparison_at_quiescence () =
  (* Pins the contract the differential fuzzer's oracles rely on: the
     omniscient Oracle and RDT-LGC are compared at *post-event
     quiescence*.  While a checkpoint event is in flight the store holds
     the new checkpoint before [on_checkpoint_stored] has collected the
     released ones, so a mid-event observer sees n+1 entries and a
     retained set the Oracle would reject; both disagreements vanish by
     the time the event returns. *)
  let n = 2 in
  let mid_counts = ref [] in
  let store_of ~me =
    let st = Stable_store.create ~me in
    Stable_store.set_backend st
      {
        Stable_store.b_store =
          (fun _ -> mid_counts := Stable_store.count st :: !mid_counts);
        b_eliminate = (fun _ -> ());
        b_truncate_above = (fun ~index:_ -> ());
      };
    st
  in
  let s = Script.create ~store_of ~n ~protocol:Protocol.fdas ~with_lgc:true () in
  Script.transfer s ~src:1 ~dst:0 (* p0 pins s^0 because of p1's interval *);
  Script.checkpoint s 0 (* retained {0,1} = n *);
  Script.checkpoint s 0 (* mid-store n+1; quiescent again by return *);
  (* the probe really did catch the store above the bound... *)
  Alcotest.(check int) "probe saw the transient n+1" (n + 1)
    (List.fold_left max 0 !mid_counts);
  (* ...yet at quiescence every fuzzer oracle holds: bound back to n, and
     the omniscient retained set is a subset of what RDT-LGC kept *)
  Alcotest.(check int) "back to n at quiescence" n
    (Stable_store.count (Script.store s 0));
  Alcotest.(check (list int)) "s^1 collected once the event completed"
    [ 0; 2 ] (Script.retained s 0);
  let ccp = Script.ccp s in
  List.iter
    (fun index ->
      Alcotest.(check bool)
        (Printf.sprintf "oracle-retained s^%d survives" index)
        true
        (List.mem index (Script.retained s 0)))
    (Oracle.retained ccp ~pid:0)

let test_create_requires_fresh_store () =
  let s = Script.create ~n:2 ~protocol:Protocol.fdas ~with_lgc:false () in
  Script.checkpoint s 0;
  let mw = Script.middleware s 0 in
  Alcotest.(check bool) "rejects non-fresh store" true
    (try
       ignore
         (Rdt_lgc.create ~me:0 ~store:(Middleware.store mw)
            ~dv:(Middleware.dv mw) ~n:2);
       false
     with Invalid_argument _ -> true)

(* --- properties over random executions -------------------------------- *)

let arb_case = QCheck.(make ~print:string_of_int Gen.(int_bound 2_000))

let prop_safety =
  QCheck.Test.make ~name:"Theorem 4: only obsolete checkpoints eliminated"
    ~count:50 arb_case (fun case ->
      let t = Helpers.run_case case in
      Helpers.audit_safety t;
      true)

let prop_optimality =
  QCheck.Test.make
    ~name:"Theorem 5: everything causally identifiable is eliminated"
    ~count:50 arb_case (fun case ->
      let t = Helpers.run_case case in
      Helpers.audit_optimality ~exact:true t;
      true)

let prop_invariant =
  QCheck.Test.make ~name:"Theorem 3: Equation 4 invariant" ~count:20 arb_case
    (fun case ->
      let t = Helpers.run_case case in
      Helpers.audit_invariant t;
      true)

let prop_bound =
  QCheck.Test.make ~name:"Section 4.5: at most n retained (n+1 transient)"
    ~count:50 arb_case (fun case ->
      let t = Helpers.run_case case in
      Helpers.audit_bound t;
      true)

let prop_audits_throughout_execution =
  QCheck.Test.make ~name:"audits hold at every sample point" ~count:8 arb_case
    (fun case ->
      let cfg = Helpers.sim_config_of_case case in
      let t = Rdt_core.Runner.create ~record:true cfg in
      Rdt_core.Runner.set_on_sample t (fun t ->
          Helpers.audit_safety t;
          Helpers.audit_optimality ~exact:true t;
          Helpers.audit_bound t);
      Rdt_core.Runner.run t;
      true)

let suite =
  [
    Alcotest.test_case "figure 4 final DV/UC state" `Quick
      test_figure4_final_state;
    Alcotest.test_case "figure 4 eliminations" `Quick test_figure4_eliminations;
    Alcotest.test_case "figure 4 takes no forced checkpoint" `Quick
      test_figure4_no_forced;
    Alcotest.test_case "figure 4 is RDT" `Quick test_figure4_is_rdt;
    Alcotest.test_case "figure 4: s1_p2 obsolete but retained" `Quick
      test_figure4_s1_p1_obsolete_but_retained;
    Alcotest.test_case "figure 4 safety and oracle set" `Quick
      test_figure4_safety_and_optimality;
    Alcotest.test_case "worst case reaches bound n" `Quick
      test_worst_case_bound_reached;
    Alcotest.test_case "worst case transient n+1" `Quick
      test_worst_case_transient;
    Alcotest.test_case "worst case clean (no forced, RDT)" `Quick
      test_worst_case_no_forced_and_rdt;
    Alcotest.test_case "worst case beats any collector" `Quick
      test_worst_case_nothing_collectable;
    Alcotest.test_case "rollback rebuilds UC (Algorithm 3)" `Quick
      test_rollback_rebuilds_uc;
    Alcotest.test_case "rollback retains needed checkpoints" `Quick
      test_rollback_retains_needed;
    Alcotest.test_case "rollback with global LI" `Quick
      test_rollback_with_global_li;
    Alcotest.test_case "release_outdated" `Quick test_release_outdated;
    Alcotest.test_case "oracle comparison point is post-event quiescence"
      `Quick test_oracle_comparison_at_quiescence;
    Alcotest.test_case "create requires fresh store" `Quick
      test_create_requires_fresh_store;
    QCheck_alcotest.to_alcotest prop_safety;
    QCheck_alcotest.to_alcotest prop_optimality;
    QCheck_alcotest.to_alcotest prop_invariant;
    QCheck_alcotest.to_alcotest prop_bound;
    QCheck_alcotest.to_alcotest prop_audits_throughout_execution;
  ]
