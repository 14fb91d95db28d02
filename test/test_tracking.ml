(* Decentralized min/max consistent global checkpoints from dependency
   vectors (Wang '97 closed forms), cross-checked against the trace-based
   lattice fixpoints. *)

module Tracking = Rdt_recovery.Tracking
module Session = Rdt_recovery.Session
module Consistency = Rdt_ccp.Consistency
module Ccp = Rdt_ccp.Ccp
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Prng = Rdt_sim.Prng

let snapshots_of_runner t n =
  Array.init n (fun pid -> Session.snapshot_of (Runner.middleware t pid))

let to_ccp_targets = List.map (fun (t : Tracking.target) -> { Ccp.pid = t.pid; index = t.index })

let run_no_gc case = Helpers.run_case ~gc:Sim_config.No_gc case

let test_figure_style_unit () =
  (* a small deterministic scripted run *)
  let s =
    Rdt_scenarios.Script.create ~n:3
      ~protocol:Rdt_protocols.Protocol.fdas ~with_lgc:false ()
  in
  let module Script = Rdt_scenarios.Script in
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 0;
  Script.checkpoint s 1;
  Script.transfer s ~src:1 ~dst:2;
  Script.checkpoint s 2;
  let snaps =
    Array.init 3 (fun pid -> Session.snapshot_of (Script.middleware s pid))
  in
  let ccp = Script.ccp s in
  let target : Tracking.target = { pid = 1; index = 1 } in
  (match Tracking.max_consistent_containing snaps [ target ] with
  | None -> Alcotest.fail "max missing"
  | Some g ->
    Alcotest.(check (option (array int)))
      "max agrees with trace fixpoint"
      (Consistency.max_consistent_containing ccp (to_ccp_targets [ target ]))
      (Some g));
  match Tracking.min_consistent_containing snaps [ target ] with
  | None -> Alcotest.fail "min missing"
  | Some g ->
    Alcotest.(check (option (array int)))
      "min agrees with trace fixpoint"
      (Consistency.min_consistent_containing ccp (to_ccp_targets [ target ]))
      (Some g)

let test_inconsistent_targets_rejected () =
  let s =
    Rdt_scenarios.Script.create ~n:2
      ~protocol:Rdt_protocols.Protocol.fdas ~with_lgc:false ()
  in
  let module Script = Rdt_scenarios.Script in
  Script.transfer s ~src:0 ~dst:1;
  Script.checkpoint s 1;
  let snaps =
    Array.init 2 (fun pid -> Session.snapshot_of (Script.middleware s pid))
  in
  (* s0_p0 precedes s1_p1 *)
  Alcotest.(check bool) "pair is inconsistent" false
    (Tracking.consistent_pair snaps { pid = 0; index = 0 } { pid = 1; index = 1 });
  Alcotest.(check bool) "max rejects" true
    (Tracking.max_consistent_containing snaps
       [ { pid = 0; index = 0 }; { pid = 1; index = 1 } ]
    = None);
  Alcotest.(check bool) "min rejects" true
    (Tracking.min_consistent_containing snaps
       [ { pid = 0; index = 0 }; { pid = 1; index = 1 } ]
    = None)

let test_requires_complete_snapshots () =
  (* with RDT-LGC enabled, checkpoints are missing: the module refuses *)
  let t = Helpers.run_case ~gc:Sim_config.Local 4 in
  let n = (Runner.config t).Sim_config.n in
  let snaps = snapshots_of_runner t n in
  let snapshot_has_gap (s : Rdt_gc.Global_gc.snapshot) =
    let gap = ref false in
    Array.iteri
      (fun pos (e : Rdt_storage.Stable_store.entry) ->
        if e.index <> pos then gap := true)
      s.entries;
    !gap
  in
  let has_gap = Array.exists snapshot_has_gap snaps in
  if has_gap then
    Alcotest.(check bool) "rejected" true
      (try
         ignore
           (Tracking.max_consistent_containing snaps [ { pid = 0; index = 0 } ]);
         false
       with Invalid_argument _ -> true)

let random_targets rng ccp =
  let n = Ccp.n ccp in
  let count = 1 + Prng.int rng (min 3 n) in
  let pids = Array.init n Fun.id in
  Prng.shuffle rng pids;
  List.init count (fun i ->
      let pid = pids.(i) in
      {
        Tracking.pid;
        index = Prng.int rng (Ccp.volatile_index ccp pid + 1);
      })

let prop_closed_forms_match_fixpoints =
  QCheck.Test.make
    ~name:"Wang closed forms = trace lattice fixpoints (RDT executions)"
    ~count:25
    QCheck.(make ~print:string_of_int Gen.(int_bound 2_000))
    (fun case ->
      let t = run_no_gc case in
      let ccp = Runner.ccp t in
      let n = Ccp.n ccp in
      let snaps = snapshots_of_runner t n in
      let rng = Prng.create ~seed:(case * 31 + 5) in
      let ok = ref true in
      for _ = 1 to 5 do
        let targets = random_targets rng ccp in
        let ccp_targets = to_ccp_targets targets in
        let max_dv = Tracking.max_consistent_containing snaps targets in
        let max_tr = Consistency.max_consistent_containing ccp ccp_targets in
        let min_dv = Tracking.min_consistent_containing snaps targets in
        let min_tr = Consistency.min_consistent_containing ccp ccp_targets in
        (* the trace fixpoint returns None exactly when no consistent
           global checkpoint contains the targets; the DV closed form
           pre-filters on pairwise consistency, which under RDT is the
           same condition *)
        if max_dv <> max_tr || min_dv <> min_tr then ok := false
      done;
      !ok)

let archives_of_runner t n =
  ( Array.init n (fun pid ->
        Rdt_protocols.Middleware.archive (Runner.middleware t pid)),
    Array.init n (fun pid ->
        Rdt_causality.Dependency_vector.to_array
          (Rdt_protocols.Middleware.dv (Runner.middleware t pid))) )

(* The archived closed forms agree with the trace fixpoints on five
   random target sets of a finished run. *)
let archived_tracking_matches t ~case =
  let ccp = Runner.ccp t in
  let n = Ccp.n ccp in
  let archives, live_dvs = archives_of_runner t n in
  let rng = Prng.create ~seed:(case * 17 + 3) in
  let ok = ref true in
  for _ = 1 to 5 do
    let targets = random_targets rng ccp in
    let ccp_targets = to_ccp_targets targets in
    if
      Tracking.max_consistent_containing_archived ~archives ~live_dvs targets
      <> Consistency.max_consistent_containing ccp ccp_targets
      || Tracking.min_consistent_containing_archived ~archives ~live_dvs
           targets
         <> Consistency.min_consistent_containing ccp ccp_targets
    then ok := false
  done;
  !ok

let prop_archive_tracking_survives_gc =
  QCheck.Test.make
    ~name:"archived tracking works under RDT-LGC (matches trace fixpoints)"
    ~count:20
    QCheck.(make ~print:string_of_int Gen.(int_bound 2_000))
    (fun case ->
      (* with the collector running, snapshots have gaps but the DV
         archive does not *)
      archived_tracking_matches ~case
        (Helpers.run_case ~gc:Sim_config.Local case))

let prop_archive_tracking_survives_rollbacks =
  QCheck.Test.make
    ~name:"archived tracking survives crash rollbacks (matches fixpoints)"
    ~count:20
    QCheck.(make ~print:string_of_int Gen.(int_bound 2_000))
    (fun case ->
      (* two crashes: every recovery session rolls processes back, which
         truncates their archives; the re-taken checkpoints are archived
         over the undone ones *)
      let n = (Helpers.sim_config_of_case case).Sim_config.n in
      let faults =
        [
          { Sim_config.crash_at = 12.0; pid = case mod n; repair_after = 3.0 };
          {
            Sim_config.crash_at = 27.0;
            pid = (case / 5) mod n;
            repair_after = 2.0;
          };
        ]
      in
      let t = Helpers.run_case ~gc:Sim_config.Local ~faults case in
      (Runner.summary t).Runner.recovery_sessions = 2
      && archived_tracking_matches ~case t)

let test_archive_truncated_on_rollback () =
  let module Script = Rdt_scenarios.Script in
  let s =
    Script.create ~n:2 ~protocol:Rdt_protocols.Protocol.fdas ~with_lgc:false ()
  in
  Script.checkpoint s 0;
  Script.checkpoint s 0;
  let archive = Rdt_protocols.Middleware.archive (Script.middleware s 0) in
  Alcotest.(check int) "three vectors archived" 3
    (Rdt_storage.Dv_archive.count archive);
  Rdt_protocols.Middleware.rollback (Script.middleware s 0) ~to_index:1
    ~li:None;
  Alcotest.(check int) "rollback rewinds the archive" 2
    (Rdt_storage.Dv_archive.count archive);
  Alcotest.(check bool) "undone vector gone" true
    (Rdt_storage.Dv_archive.find archive ~index:2 = None)

let suite =
  [
    Alcotest.test_case "unit: scripted run" `Quick test_figure_style_unit;
    Alcotest.test_case "archive truncated on rollback" `Quick
      test_archive_truncated_on_rollback;
    QCheck_alcotest.to_alcotest prop_archive_tracking_survives_gc;
    QCheck_alcotest.to_alcotest prop_archive_tracking_survives_rollbacks;
    Alcotest.test_case "inconsistent targets rejected" `Quick
      test_inconsistent_targets_rejected;
    Alcotest.test_case "requires complete snapshots" `Quick
      test_requires_complete_snapshots;
    QCheck_alcotest.to_alcotest prop_closed_forms_match_fixpoints;
  ]
