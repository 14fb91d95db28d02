(* Theorem-level validation: the paper's lemmas about obsolescence are
   checked as executable properties over random protocol-driven
   executions, with all quantities recomputed from trace ground truth. *)

module Ccp = Rdt_ccp.Ccp
module Oracle = Rdt_gc.Oracle
module Global_gc = Rdt_gc.Global_gc
module Recovery_line = Rdt_recovery.Recovery_line
module Session = Rdt_recovery.Session
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config

let arb_case = QCheck.(make ~print:string_of_int Gen.(int_bound 3_000))

let single_failure_lines ccp =
  List.init (Ccp.n ccp) (fun f -> Recovery_line.lemma1 ccp ~faulty:[ f ])

(* Lemma 2: every stable checkpoint on the recovery line of a faulty set F
   is on the recovery line of some single faulty process. *)
let prop_lemma2 =
  QCheck.Test.make ~name:"Lemma 2: R_F members appear on some single-failure line"
    ~count:20 arb_case (fun case ->
      let t = Helpers.run_case ~gc:Sim_config.No_gc case in
      let ccp = Runner.ccp t in
      let n = Ccp.n ccp in
      let singles = single_failure_lines ccp in
      let rng = Rdt_sim.Prng.create ~seed:(case + 77) in
      let ok = ref true in
      for _ = 1 to 5 do
        (* a random non-empty faulty set *)
        let faulty =
          List.filter
            (fun _ -> Rdt_sim.Prng.bool rng)
            (List.init n Fun.id)
        in
        let faulty = if faulty = [] then [ Rdt_sim.Prng.int rng n ] else faulty in
        let line = Recovery_line.lemma1 ccp ~faulty in
        Array.iteri
          (fun pid index ->
            (* only stable members are covered by the lemma *)
            if index <= Ccp.last_stable ccp pid then begin
              let covered =
                List.exists (fun single -> single.(pid) = index) singles
              in
              if not covered then ok := false
            end)
          line
      done;
      !ok)

(* Lemma 3 / Definition 7 (via Lemma 2): a stable checkpoint is obsolete
   per Theorem 1 iff it is on no single-failure recovery line. *)
let prop_lemma3 =
  QCheck.Test.make
    ~name:"Lemma 3: Theorem-1 obsolete = needless (not on any recovery line)"
    ~count:20 arb_case (fun case ->
      let t = Helpers.run_case ~gc:Sim_config.No_gc case in
      let ccp = Runner.ccp t in
      let singles = single_failure_lines ccp in
      List.for_all
        (fun (c : Ccp.ckpt) ->
          let on_some_line =
            List.exists (fun line -> line.(c.pid) = c.index) singles
          in
          Oracle.is_obsolete ccp c = not on_some_line)
        (Helpers.stable_checkpoints ccp))

(* Theorem 2 is a weakening of Theorem 1: everything identified obsolete
   from causal knowledge is truly obsolete (oracle retained set is a
   subset of the causal-knowledge retained set). *)
let prop_theorem2_weakens_theorem1 =
  QCheck.Test.make
    ~name:"Theorem 2 never identifies a non-obsolete checkpoint" ~count:20
    arb_case (fun case ->
      let t = Helpers.run_case ~gc:Sim_config.No_gc case in
      let ccp = Runner.ccp t in
      let n = Ccp.n ccp in
      let snaps =
        Array.init n (fun pid -> Session.snapshot_of (Runner.middleware t pid))
      in
      List.for_all
        (fun pid ->
          let causal =
            Global_gc.retained snaps.(pid) ~li:snaps.(pid).Global_gc.live_dv
          in
          List.for_all
            (fun needed -> List.mem needed causal)
            (Oracle.retained ccp ~pid))
        (List.init n Fun.id))

(* Obsolescence is stable: a checkpoint obsolete in a prefix of the
   execution stays obsolete in every extension (Definition 6 is about the
   future; Claim 1 of the appendix). *)
let prop_obsolete_is_stable =
  QCheck.Test.make ~name:"Claim 1: obsolete checkpoints stay obsolete"
    ~count:10 arb_case (fun case ->
      let cfg = Helpers.sim_config_of_case ~gc:Sim_config.No_gc case in
      let t = Runner.create cfg in
      let obsolete_seen = Hashtbl.create 64 in
      let ok = ref true in
      Runner.set_on_sample t (fun t ->
          let ccp = Runner.ccp t in
          (* everything marked obsolete at an earlier sample must still be
             obsolete *)
          Hashtbl.iter
            (fun (pid, index) () ->
              if not (Oracle.is_obsolete ccp { Ccp.pid; index }) then
                ok := false)
            obsolete_seen;
          List.iter
            (fun (c : Ccp.ckpt) ->
              Hashtbl.replace obsolete_seen (c.pid, c.index) ())
            (Oracle.obsolete ccp));
      Runner.run t;
      !ok)

(* Stable members of a recovery line never regress as execution extends:
   causal relations between past events are fixed and later "last stable
   checkpoints" of the faulty process precede fewer checkpoints.  (The
   volatile member of a line is ephemeral — it can acquire a dependency
   and fall off — so only stable components are monotone; this is the
   monotonicity the simple coordinated baseline's safety rests on.) *)
let prop_recovery_line_monotone =
  QCheck.Test.make
    ~name:"stable recovery-line members move monotonically forward" ~count:10
    arb_case (fun case ->
      let cfg = Helpers.sim_config_of_case ~gc:Sim_config.No_gc case in
      let n = cfg.Sim_config.n in
      let t = Runner.create cfg in
      (* previous.(f).(pid) = last *stable* line component seen *)
      let previous = Array.make_matrix n n (-1) in
      let ok = ref true in
      Runner.set_on_sample t (fun t ->
          let ccp = Runner.ccp t in
          for f = 0 to n - 1 do
            let line = Recovery_line.lemma1 ccp ~faulty:[ f ] in
            Array.iteri
              (fun pid index ->
                if line.(pid) < previous.(f).(pid) then ok := false;
                if index <= Ccp.last_stable ccp pid then
                  previous.(f).(pid) <- max previous.(f).(pid) index)
              line
          done);
      Runner.run t;
      !ok)

(* Random fault plans: safety and consistency must survive arbitrary
   crash/recovery schedules, in both knowledge modes. *)
let prop_random_fault_plans =
  QCheck.Test.make ~name:"safety under random fault plans" ~count:15
    QCheck.(make ~print:string_of_int Gen.(int_bound 5_000))
    (fun case ->
      let rng = Rdt_sim.Prng.create ~seed:(case + 1234) in
      let base = Helpers.sim_config_of_case case in
      let n = base.Sim_config.n in
      let fault_count = 1 + Rdt_sim.Prng.int rng 3 in
      let faults =
        List.init fault_count (fun i ->
            {
              Sim_config.pid = Rdt_sim.Prng.int rng n;
              crash_at = 5.0 +. (10.0 *. float_of_int i) +. Rdt_sim.Prng.float rng 4.0;
              repair_after = 1.0 +. Rdt_sim.Prng.float rng 3.0;
            })
      in
      let knowledge = if case mod 2 = 0 then `Global else `Causal in
      let cfg = { base with faults; knowledge; duration = 60.0 } in
      (* the generator can produce overlapping windows for one process;
         skip those cases *)
      match Sim_config.validate cfg with
      | exception Invalid_argument _ -> true
      | () ->
        let t = Runner.create cfg in
        Runner.run t;
        Helpers.audit_safety t;
        Helpers.audit_bound t;
        Helpers.audit_rdt t;
        Helpers.audit_optimality ~exact:false t;
        true)

(* Theorem 3 at its strongest: the Equation-4 invariant after *every*
   engine event of a small simulation. *)
let prop_invariant_every_event =
  QCheck.Test.make ~name:"Equation 4 holds after every event" ~count:5
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000))
    (fun case ->
      let cfg =
        { (Helpers.sim_config_of_case case) with Sim_config.duration = 8.0 }
      in
      let t = Runner.create cfg in
      let continue = ref true in
      while !continue do
        continue := Runner.step t && Runner.now t <= 8.0;
        Helpers.audit_invariant t;
        Helpers.audit_safety t
      done;
      true)

(* Garbage collection is invisible to recovery: with identical seeds and
   fault plans, a run with RDT-LGC and a run without any collection go
   through exactly the same recovery lines and rollbacks — collection
   never touches a checkpoint any recovery line could need. *)
let prop_collection_invisible_to_recovery =
  QCheck.Test.make
    ~name:"collection never changes recovery outcomes" ~count:10
    QCheck.(make ~print:string_of_int Gen.(int_bound 3_000))
    (fun case ->
      let faults =
        [
          { Sim_config.pid = 0; crash_at = 15.0; repair_after = 3.0 };
          { Sim_config.pid = 1; crash_at = 35.0; repair_after = 2.0 };
        ]
      in
      let run gc =
        let cfg =
          { (Helpers.sim_config_of_case ~gc ~faults case) with duration = 55.0 }
        in
        let t = Runner.create cfg in
        Runner.run t;
        t
      in
      let with_gc = run Sim_config.Local in
      let without = run Sim_config.No_gc in
      let lines t =
        List.map
          (fun (r : Rdt_recovery.Session.report) ->
            (r.faulty, Array.to_list r.line, r.checkpoints_rolled_back))
          (Runner.recoveries t)
      in
      (* same sessions, same lines — and the application states come out
         identical too (the executions are indistinguishable) *)
      let states t =
        List.init (Runner.config t).Sim_config.n (fun pid ->
            Rdt_protocols.Middleware.app_state (Runner.middleware t pid))
      in
      lines with_gc = lines without && states with_gc = states without)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lemma2;
    QCheck_alcotest.to_alcotest prop_collection_invisible_to_recovery;
    QCheck_alcotest.to_alcotest prop_random_fault_plans;
    QCheck_alcotest.to_alcotest prop_invariant_every_event;
    QCheck_alcotest.to_alcotest prop_lemma3;
    QCheck_alcotest.to_alcotest prop_theorem2_weakens_theorem1;
    QCheck_alcotest.to_alcotest prop_obsolete_is_stable;
    QCheck_alcotest.to_alcotest prop_recovery_line_monotone;
  ]
