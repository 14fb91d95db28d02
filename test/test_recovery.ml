(* Recovery lines (Lemma 1 / Definition 5) and recovery sessions. *)

module Ccp = Rdt_ccp.Ccp
module Recovery_line = Rdt_recovery.Recovery_line
module Session = Rdt_recovery.Session
module Process_stack = Rdt_recovery.Process_stack
module Figures = Rdt_scenarios.Figures
module Script = Rdt_scenarios.Script
module Protocol = Rdt_protocols.Protocol
module Stable_store = Rdt_storage.Stable_store
module Middleware = Rdt_protocols.Middleware

let global_c = Alcotest.(array int)

let all_faulty_subsets n =
  (* non-empty subsets of 0..n-1 *)
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun l -> x :: l) s
  in
  List.filter (fun l -> l <> []) (subsets (List.init n Fun.id))

let check_line_properties name ccp faulty line =
  (* a recovery line is consistent, excludes faulty volatiles, and equals
     the maximal consistent global checkpoint below that bound *)
  Alcotest.(check bool)
    (name ^ ": consistent")
    true
    (Rdt_ccp.Consistency.is_consistent ccp line);
  List.iter
    (fun f ->
      if line.(f) > Ccp.last_stable ccp f then
        Alcotest.failf "%s: faulty p%d keeps its volatile" name f)
    faulty;
  Alcotest.check global_c
    (name ^ ": equals Definition 5")
    (Recovery_line.by_max_consistent ccp ~faulty)
    line

let test_lemma1_equals_definition_on_figures () =
  let ccps =
    [
      ("figure1", (Figures.figure1 ()).ccp);
      ("recovery", Figures.recovery_ccp ());
      ("figure4", Script.ccp (Figures.figure4 ()));
      ("worst-case", Script.ccp (Figures.worst_case ~n:3));
    ]
  in
  List.iter
    (fun (name, ccp) ->
      List.iter
        (fun faulty ->
          let line = Recovery_line.lemma1 ccp ~faulty in
          check_line_properties
            (Printf.sprintf "%s F={%s}" name
               (String.concat "," (List.map string_of_int faulty)))
            ccp faulty line)
        (all_faulty_subsets (Ccp.n ccp)))
    ccps

let test_lemma1_minimizes_rollback () =
  let ccp = Figures.recovery_ccp () in
  List.iter
    (fun faulty ->
      let line = Recovery_line.lemma1 ccp ~faulty in
      let bound =
        Array.init (Ccp.n ccp) (fun i ->
            if List.mem i faulty then Ccp.last_stable ccp i
            else Ccp.volatile_index ccp i)
      in
      match Rdt_ccp.Consistency.brute_force_max_consistent ccp ~bound with
      | None -> Alcotest.fail "no line"
      | Some best ->
        Alcotest.(check int)
          "rollback count minimal"
          (Rdt_ccp.Consistency.count_rolled_back ccp best)
          (Rdt_ccp.Consistency.count_rolled_back ccp line))
    (all_faulty_subsets (Ccp.n ccp))

let test_snapshots_agree_with_lemma1_no_gc () =
  (* with no collection, stored DVs describe every checkpoint, so the
     runtime computation must equal the ground-truth one *)
  let s = Script.create ~n:3 ~protocol:Protocol.fdas ~with_lgc:false () in
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 1;
  Script.transfer s ~src:1 ~dst:2;
  Script.checkpoint s 2;
  Script.transfer s ~src:2 ~dst:0;
  Script.checkpoint s 0;
  Script.transfer s ~src:1 ~dst:0;
  let ccp = Script.ccp s in
  let snaps =
    Array.init 3 (fun pid -> Session.snapshot_of (Script.middleware s pid))
  in
  List.iter
    (fun faulty ->
      Alcotest.check global_c
        (Printf.sprintf "F={%s}"
           (String.concat "," (List.map string_of_int faulty)))
        (Recovery_line.lemma1 ccp ~faulty)
        (Recovery_line.from_snapshots snaps ~faulty))
    (all_faulty_subsets 3)

let test_domino_effect_rollback_depth () =
  (* Figure 2's promise: a single failure forces the uncoordinated run
     back to the initial state, while FDAS keeps the loss bounded *)
  let f = Figures.figure2 () in
  let bound =
    [| Ccp.volatile_index f.ccp 0; Ccp.last_stable f.ccp 1 |]
  in
  (match Rdt_ccp.Consistency.max_consistent f.ccp ~bound with
  | Some line -> Alcotest.check global_c "domino to the initial state" [| 0; 0 |] line
  | None -> Alcotest.fail "no line");
  let s = Figures.figure2_with_protocol Protocol.fdas in
  let ccp = Script.ccp s in
  let line = Recovery_line.lemma1 ccp ~faulty:[ 1 ] in
  Alcotest.(check bool) "FDAS keeps progress" true
    (line.(0) > 0 || line.(1) > 0)

(* --- sessions --------------------------------------------------------- *)

let session_setup () =
  let s = Script.create ~n:3 ~protocol:Protocol.fdas ~with_lgc:true () in
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 1;
  Script.transfer s ~src:1 ~dst:2;
  Script.checkpoint s 2;
  Script.checkpoint s 0;
  Script.transfer s ~src:2 ~dst:1 (* p1 depends on p2's interval 2 *);
  s

let middlewares_of s = Array.init 3 (Script.middleware s)
let stacks_of s = Array.init 3 (Script.stack s)

let test_session_rolls_back_dependents () =
  let s = session_setup () in
  let report =
    Process_stack.session (stacks_of s) ~faulty:[ 2 ] ~knowledge:`Global
  in
  Alcotest.(check (list int)) "faulty" [ 2 ] report.Session.faulty;
  (* p2 loses its volatile; p1 received from p2's interval 2 and must not
     keep that receive *)
  Alcotest.(check bool) "p1 rolled back or p2 line below volatile" true
    (List.mem 2 report.Session.rolled_back);
  (* after the session, the post-rollback trace is consistent (orphan
     receives were undone), so the CCP rebuilds cleanly *)
  let ccp = Script.ccp s in
  Alcotest.(check bool) "post-recovery CCP is RDT" true
    (Rdt_ccp.Rdt_check.holds ccp)

let test_session_preserves_safety () =
  let s = session_setup () in
  let _ =
    Process_stack.session (stacks_of s) ~faulty:[ 2 ] ~knowledge:`Global
  in
  Helpers.fail_on_first
    (Rdt_verify.Oracles.safety ~stack:(Script.stack s) ~ccp:(Script.ccp s)
       ~op:(-1))

let test_session_causal_mode () =
  let s = session_setup () in
  let report =
    Session.run ~middlewares:(middlewares_of s) ~faulty:[ 2 ]
      ~knowledge:`Causal
      ~release_outdated:(fun _ ~li:_ -> Alcotest.fail "not called in causal mode")
  in
  Alcotest.(check bool) "report produced" true
    (report.Session.checkpoints_rolled_back >= 1)

let test_session_counts_undone () =
  let s = session_setup () in
  let snaps = Array.map Session.snapshot_of (middlewares_of s) in
  let line = Recovery_line.from_snapshots snaps ~faulty:[ 2 ] in
  let expected =
    Array.to_list (middlewares_of s)
    |> List.mapi (fun i mw ->
           Stable_store.last_index (Middleware.store mw) + 1 - line.(i))
    |> List.fold_left ( + ) 0
  in
  let report =
    Session.run ~middlewares:(middlewares_of s) ~faulty:[ 2 ]
      ~knowledge:`Global
      ~release_outdated:(fun _ ~li:_ -> ())
  in
  Alcotest.(check int) "undone count" expected
    report.Session.checkpoints_rolled_back

let suite =
  [
    Alcotest.test_case "Lemma 1 = Definition 5 on all figures and subsets"
      `Quick test_lemma1_equals_definition_on_figures;
    Alcotest.test_case "Lemma 1 minimizes rollback" `Quick
      test_lemma1_minimizes_rollback;
    Alcotest.test_case "snapshot computation agrees" `Quick
      test_snapshots_agree_with_lemma1_no_gc;
    Alcotest.test_case "domino rollback depth" `Quick
      test_domino_effect_rollback_depth;
    Alcotest.test_case "session rolls back dependents" `Quick
      test_session_rolls_back_dependents;
    Alcotest.test_case "session preserves safety" `Quick
      test_session_preserves_safety;
    Alcotest.test_case "session causal mode" `Quick test_session_causal_mode;
    Alcotest.test_case "session counts undone checkpoints" `Quick
      test_session_counts_undone;
  ]
