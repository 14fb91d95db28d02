(* Decentralized min/max consistent global checkpoints from dependency
   vectors (Wang '97 closed forms), cross-checked against the trace-based
   lattice fixpoints. *)

module Tracking = Rdt_recovery.Tracking
module Consistency = Rdt_ccp.Consistency
module Ccp = Rdt_ccp.Ccp
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Prng = Rdt_sim.Prng

(* The closed forms over a system's archives and live DVs. *)
let max_of mws targets =
  let archives, live_dvs = Helpers.tracking_inputs mws in
  Tracking.max_consistent_containing ~archives ~live_dvs targets

let min_of mws targets =
  let archives, live_dvs = Helpers.tracking_inputs mws in
  Tracking.min_consistent_containing ~archives ~live_dvs targets

let script_mws s n = Array.init n (Rdt_scenarios.Script.middleware s)
let runner_mws t = Array.init (Runner.config t).Sim_config.n (Runner.middleware t)

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
  let mws = script_mws s 3 in
  let ccp = Script.ccp s in
  let target : Tracking.target = { pid = 1; index = 1 } in
  (match max_of mws [ target ] with
  | None -> Alcotest.fail "max missing"
  | Some g ->
    Alcotest.(check (option (array int)))
      "max agrees with trace fixpoint"
      (Consistency.max_consistent_containing ccp (to_ccp_targets [ target ]))
      (Some g));
  match min_of mws [ target ] with
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
  let mws = script_mws s 2 in
  (* s0_p0 precedes s1_p1 *)
  let targets : Tracking.target list =
    [ { pid = 0; index = 0 }; { pid = 1; index = 1 } ]
  in
  Alcotest.(check bool) "max rejects" true (max_of mws targets = None);
  Alcotest.(check bool) "min rejects" true (min_of mws targets = None)

let random_targets rng ccp =
  let n = Ccp.n ccp in
  let count = 1 + Prng.int rng (min 3 n) in
  let pids = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let tmp = pids.(i) in
    pids.(i) <- pids.(j);
    pids.(j) <- tmp
  done;
  List.init count (fun i ->
      let pid = pids.(i) in
      {
        Tracking.pid;
        index = Prng.int rng (Ccp.volatile_index ccp pid + 1);
      })

(* The closed forms agree with the trace fixpoints on five random target
   sets of a finished run.  The trace fixpoint returns None exactly when
   no consistent global checkpoint contains the targets; the DV closed
   form pre-filters on pairwise consistency, which under RDT is the same
   condition. *)
let archived_tracking_matches t ~case =
  let ccp = Runner.ccp t in
  let mws = runner_mws t in
  let rng = Prng.create ~seed:(case * 17 + 3) in
  let ok = ref true in
  for _ = 1 to 5 do
    let targets = random_targets rng ccp in
    let ccp_targets = to_ccp_targets targets in
    if
      max_of mws targets <> Consistency.max_consistent_containing ccp ccp_targets
      || min_of mws targets
         <> Consistency.min_consistent_containing ccp ccp_targets
    then ok := false
  done;
  !ok

let prop_closed_forms_match_fixpoints =
  QCheck.Test.make
    ~name:"Wang closed forms = trace lattice fixpoints (RDT executions)"
    ~count:25
    QCheck.(make ~print:string_of_int Gen.(int_bound 2_000))
    (fun case -> archived_tracking_matches ~case (run_no_gc case))

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
    QCheck_alcotest.to_alcotest prop_closed_forms_match_fixpoints;
  ]
