(* End-to-end integration: full simulations across protocols, GC policies,
   network conditions and fault plans, audited against the oracle. *)

module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload
module Protocol = Rdt_protocols.Protocol
module Stable_store = Rdt_storage.Stable_store
module Middleware = Rdt_protocols.Middleware
module Series = Rdt_metrics.Series

let run cfg =
  let t = Runner.create ~record:true cfg in
  Runner.run t;
  t

let base = Helpers.sim_config_of_case 1

(* A run is a pure function of its config: two runs agree on every
   summary field and every sampled retention value. *)
let test_deterministic_replay () =
  let observe cfg =
    let t = run cfg in
    ( Runner.summary t,
      Array.map Series.values (Runner.retained_series t) )
  in
  List.iter
    (fun seed ->
      List.iter
        (fun gc ->
          let cfg =
            {
              Sim_config.default with
              n = 4;
              seed;
              duration = 30.0;
              gc;
              sample_interval = 2.0;
              workload =
                {
                  Workload.pattern = Workload.Uniform;
                  send_mean_interval = 0.8;
                  basic_ckpt_mean_interval = 4.0;
                  reply_probability = 0.3;
                };
            }
          in
          let s1, v1 = observe cfg and s2, v2 = observe cfg in
          let label = Printf.sprintf "seed %d, %s" seed s1.Runner.gc in
          (* [compare], not [=]: summaries hold NaN for unsampled means *)
          Alcotest.(check bool) (label ^ ": summary identical") true
            (compare s1 s2 = 0);
          Alcotest.(check (array (list (float 0.0))))
            (label ^ ": series identical") v1 v2)
        [
          Sim_config.No_gc;
          Sim_config.Local;
          Sim_config.Coordinated { period = 5.0 };
        ])
    [ 7; 19 ]

let test_seed_changes_execution () =
  let s1 = Runner.summary (run base) in
  let s2 = Runner.summary (run { base with seed = base.seed + 1 }) in
  Alcotest.(check bool) "different executions" true
    (s1.Runner.app_messages <> s2.Runner.app_messages
    || s1.Runner.stored_total <> s2.Runner.stored_total)

let test_all_protocols_run_clean () =
  List.iter
    (fun p ->
      let t = run { base with protocol = p; gc = Sim_config.Local } in
      Helpers.audit_safety t;
      Helpers.audit_bound t;
      Helpers.audit_rdt t)
    Protocol.rdt_protocols

let test_no_gc_keeps_everything () =
  let t = run { base with gc = Sim_config.No_gc } in
  let s = Runner.summary t in
  Alcotest.(check int) "nothing eliminated" 0 s.Runner.eliminated_total;
  Alcotest.(check int) "all stored retained" s.Runner.stored_total
    (Array.fold_left ( + ) 0 s.Runner.final_retained)

let test_local_gc_collects () =
  let t = run base in
  let s = Runner.summary t in
  Alcotest.(check bool) "collected a meaningful share" true
    (s.Runner.eliminated_total > s.Runner.stored_total / 2)

let test_coordinated_gc () =
  let t = run { base with gc = Sim_config.Coordinated { period = 5.0 } } in
  Helpers.audit_safety t;
  let s = Runner.summary t in
  Alcotest.(check bool) "rounds ran" true (s.Runner.gc_rounds > 0);
  Alcotest.(check bool) "control messages flowed" true
    (s.Runner.control_messages > 0);
  Alcotest.(check bool) "collected something" true
    (s.Runner.eliminated_total > 0)

let test_simple_gc () =
  let t = run { base with gc = Sim_config.Simple { period = 5.0 } } in
  Helpers.audit_safety t;
  let s = Runner.summary t in
  Alcotest.(check bool) "collected something" true
    (s.Runner.eliminated_total > 0)

let test_lazy_local_gc () =
  let t = run { base with gc = Sim_config.Local_lazy { period = 2.0 } } in
  Helpers.audit_safety t;
  (* lazy sweeps never collect anything RDT-LGC would not: the retained
     set is always a superset of the Theorem-2 optimum *)
  Helpers.audit_optimality ~exact:false t;
  let s = Runner.summary t in
  Alcotest.(check bool) "collected something" true
    (s.Runner.eliminated_total > 0);
  Alcotest.(check int) "asynchronous: no control messages" 0
    s.Runner.control_messages

let test_lazy_dominates_incremental_pointwise () =
  (* identical executions (no control traffic): the lazy variant can only
     hold more than the incremental collector at any sample *)
  let t_lazy = run { base with gc = Sim_config.Local_lazy { period = 5.0 } } in
  let t_inc = run { base with gc = Sim_config.Local } in
  List.iter2
    (fun lazy_v inc_v ->
      if lazy_v < inc_v -. 1e-9 then
        Alcotest.failf "lazy retained %.0f < incremental %.0f" lazy_v inc_v)
    (Series.values (Runner.total_retained_series t_lazy))
    (Series.values (Runner.total_retained_series t_inc))

let test_oracle_gc () =
  let t = run { base with gc = Sim_config.Oracle_periodic { period = 2.0 } } in
  Helpers.audit_safety t;
  let s = Runner.summary t in
  Alcotest.(check bool) "collected something" true
    (s.Runner.eliminated_total > 0)

let test_gc_effectiveness_ordering () =
  (* Instantaneous Theorem-1 knowledge is a pointwise lower bound on what
     any safe collector retains, and no-gc a pointwise upper bound.  A
     *periodic* oracle, by contrast, legitimately holds more than RDT-LGC
     between its rounds, so only pointwise-in-one-run comparisons are
     meaningful. *)
  let t = run { base with gc = Sim_config.Local } in
  let totals = Series.values (Runner.total_retained_series t) in
  let optimals = Series.values (Runner.optimal_retained_series t) in
  List.iter2
    (fun opt actual ->
      if opt > actual +. 1e-9 then
        Alcotest.failf "optimal %.0f above actual %.0f" opt actual)
    optimals totals;
  (* no-gc and rdt-lgc see byte-identical executions (no control traffic,
     same seed), so their sampled totals compare pointwise too *)
  let t_none = run { base with gc = Sim_config.No_gc } in
  let totals_none = Series.values (Runner.total_retained_series t_none) in
  List.iter2
    (fun with_gc without ->
      if with_gc > without +. 1e-9 then
        Alcotest.failf "rdt-lgc retains %.0f > no-gc %.0f" with_gc without)
    totals totals_none

let test_local_gc_needs_no_control_messages () =
  let t = run base in
  let s = Runner.summary t in
  Alcotest.(check int) "asynchronous: zero control messages" 0
    s.Runner.control_messages

let test_bound_under_stress () =
  let cfg =
    {
      base with
      n = 6;
      duration = 80.0;
      workload =
        {
          Workload.default with
          pattern = Workload.Uniform;
          send_mean_interval = 0.3;
          basic_ckpt_mean_interval = 2.0;
        };
    }
  in
  let t = run cfg in
  Helpers.audit_bound t;
  Helpers.audit_safety t

let test_lossy_network () =
  let cfg =
    {
      base with
      net = { Rdt_sim.Network.default with loss_probability = 0.3 };
    }
  in
  let t = run cfg in
  Helpers.audit_safety t;
  Helpers.audit_optimality ~exact:true t;
  Helpers.audit_rdt t

let test_reordering_network () =
  let cfg =
    {
      base with
      net =
        {
          Rdt_sim.Network.default with
          fifo = false;
          min_delay = 0.1;
          max_delay = 4.0;
        };
    }
  in
  let t = run cfg in
  Helpers.audit_safety t;
  Helpers.audit_rdt t

(* --- faults ----------------------------------------------------------- *)

let fault_cfg =
  {
    base with
    duration = 60.0;
    faults =
      [
        { Sim_config.crash_at = 20.0; pid = 1; repair_after = 3.0 };
        { Sim_config.crash_at = 40.0; pid = 0; repair_after = 2.0 };
      ];
  }

let test_crash_recovery_runs () =
  let t = run fault_cfg in
  let s = Runner.summary t in
  Alcotest.(check int) "two sessions" 2 s.Runner.recovery_sessions;
  Alcotest.(check bool) "rollbacks happened" true
    (s.Runner.checkpoints_rolled_back > 0)

let test_crash_recovery_consistency () =
  let t = run fault_cfg in
  (* the post-recovery trace must rebuild into a valid, RD-trackable CCP *)
  Helpers.audit_rdt t;
  Helpers.audit_safety t;
  Helpers.audit_bound t

let test_crash_recovery_causal_knowledge () =
  let t = run { fault_cfg with knowledge = `Causal } in
  Helpers.audit_rdt t;
  Helpers.audit_safety t;
  (* optimality still holds in the weaker, subset sense *)
  Helpers.audit_optimality ~exact:false t

let test_concurrent_crashes () =
  let cfg =
    {
      base with
      duration = 60.0;
      n = 4;
      faults =
        [
          { Sim_config.crash_at = 20.0; pid = 1; repair_after = 5.0 };
          { Sim_config.crash_at = 21.0; pid = 2; repair_after = 8.0 };
        ];
    }
  in
  let t = run cfg in
  Helpers.audit_rdt t;
  Helpers.audit_safety t

let test_crash_with_coordinated_gc () =
  let cfg = { fault_cfg with gc = Sim_config.Coordinated { period = 5.0 } } in
  let t = run cfg in
  Helpers.audit_safety t;
  Alcotest.(check bool) "sessions happened" true
    ((Runner.summary t).Runner.recovery_sessions > 0)

let test_coordinator_crash_during_rounds () =
  (* process 0 plays GC coordinator; crashing it must stall rounds safely
     (no round completes on partial membership, nothing unsafe happens) *)
  let cfg =
    {
      base with
      duration = 60.0;
      gc = Sim_config.Coordinated { period = 4.0 };
      faults = [ { Sim_config.crash_at = 15.0; pid = 0; repair_after = 10.0 } ];
    }
  in
  let t = run cfg in
  Helpers.audit_safety t;
  Helpers.audit_rdt t;
  Alcotest.(check bool) "rounds still completed around the outage" true
    ((Runner.summary t).Runner.gc_rounds > 0)

let test_participant_crash_during_rounds () =
  let cfg =
    {
      base with
      duration = 60.0;
      gc = Sim_config.Coordinated { period = 4.0 };
      faults = [ { Sim_config.crash_at = 15.0; pid = 2; repair_after = 10.0 } ];
    }
  in
  let t = run cfg in
  Helpers.audit_safety t;
  Helpers.audit_rdt t

let test_crash_with_lossy_network () =
  let cfg =
    {
      fault_cfg with
      net = { Rdt_sim.Network.default with loss_probability = 0.2 };
    }
  in
  let t = run cfg in
  Helpers.audit_safety t;
  Helpers.audit_rdt t;
  Helpers.audit_bound t

let test_faults_under_every_protocol () =
  List.iter
    (fun p ->
      let t = run { fault_cfg with protocol = p } in
      Helpers.audit_safety t;
      Helpers.audit_rdt t)
    Protocol.rdt_protocols

(* A muted trace records nothing, so a rollback has nothing to cut: the
   crash-faulted run must go on exactly as the recorded one does. *)
let test_muted_trace_survives_rollback () =
  let cfg =
    {
      Sim_config.default with
      seed = 3;
      faults = [ { Sim_config.crash_at = 20.0; pid = 1; repair_after = 3.0 } ];
    }
  in
  let summary ~record =
    let t = Runner.create ~record cfg in
    Runner.run t;
    Fmt.str "%a" Runner.pp_summary (Runner.summary t)
  in
  Alcotest.(check string)
    "same summary" (summary ~record:true) (summary ~record:false)

(* A default run keeps no trace, and says so instead of answering from
   an empty one: [ccp] names the flag that would have kept it, and the
   trace's own readers refuse too. *)
let test_unrecorded_run_refuses_readers () =
  let t = Runner.create { base with duration = 10.0 } in
  Runner.run t;
  (match Runner.ccp t with
  | _ -> Alcotest.fail "Runner.ccp answered on an unrecorded run"
  | exception Invalid_argument e ->
    if not (Helpers.contains e "~record:true") then
      Alcotest.failf "%S does not name ~record:true" e);
  let trace = Runner.trace t in
  Alcotest.(check int) "nothing stored" 0 (Rdt_ccp.Trace.length trace);
  Alcotest.(check bool) "Trace.to_string refuses" true
    (match Rdt_ccp.Trace.to_string trace with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The Runner-path twin of [fuzz --mutate-lgc]: with every collector
   over-collecting, an audit the tier-1 tests share must fire.  It runs
   at every sample because the damage is transient: these runs end in a
   safe state.  An audit fails by raising Alcotest's (unexported) check
   error, hence the catch-all. *)
let overcollect_caught_by audit =
  let caught = ref 0 in
  List.iter
    (fun seed ->
      let t =
        Runner.create ~record:true
          {
            Sim_config.default with
            seed;
            duration = 40.0;
            sample_interval = 0.5;
          }
      in
      for pid = 0 to 3 do
        Option.iter
          (fun lgc -> Rdt_gc.Rdt_lgc.set_test_overcollect lgc true)
          (Runner.collector t pid)
      done;
      Runner.set_on_sample t (fun t ->
          match audit t with () -> () | exception _ -> incr caught);
      Runner.run t)
    [ 1; 2; 3 ];
  !caught > 0

let test_overcollect_caught () =
  Alcotest.(check bool) "over-collection caught" true
    (overcollect_caught_by Helpers.audit_safety)

(* The Equation-4 oracle on its own: the mutant drops UC references that
   {!Rdt_gc.Oracle.witness} says must stay. *)
let test_overcollect_breaks_invariant () =
  Alcotest.(check bool) "invariant violated" true
    (overcollect_caught_by Helpers.audit_invariant)

(* --- metrics ----------------------------------------------------------- *)

let test_series_recorded () =
  let t = run base in
  Alcotest.(check bool) "total series sampled" true
    (Series.length (Runner.total_retained_series t) > 5);
  Alcotest.(check bool) "optimal series sampled" true
    (Series.length (Runner.optimal_retained_series t) > 5);
  Alcotest.(check int) "per-process series" base.n
    (Array.length (Runner.retained_series t))

let test_summary_accounting () =
  let t = run base in
  let s = Runner.summary t in
  (* stored = eliminated + retained *)
  Alcotest.(check int) "conservation" s.Runner.stored_total
    (s.Runner.eliminated_total + Array.fold_left ( + ) 0 s.Runner.final_retained);
  (* checkpoint counts match store totals: basic + forced + n initials *)
  Alcotest.(check int) "checkpoint counts"
    (s.Runner.basic_checkpoints + s.Runner.forced_checkpoints + base.n)
    s.Runner.stored_total

(* Only the validators run here: no simulation starts, so an infinite
   duration the checks let through cannot hang the suite. *)
let test_validation_rejects_bad_configs () =
  let rejects f = try f (); false with Invalid_argument _ -> true in
  let bad cfg = rejects (fun () -> Sim_config.validate cfg) in
  let bad_workload w =
    rejects (fun () ->
        ignore
          (Workload.create w ~n:base.n ~rng:(Rdt_sim.Prng.create ~seed:1)))
  in
  let bad_net net =
    rejects (fun () ->
        ignore (Rdt_sim.Network.create net ~n:base.n
                  ~rng:(Rdt_sim.Prng.create ~seed:1)))
  in
  Alcotest.(check bool) "base is valid" false
    (bad base || bad_workload base.workload || bad_net base.net);
  Alcotest.(check bool) "n too small" true (bad { base with n = 1 });
  Alcotest.(check bool) "n past the longest record DV" true
    (bad { base with n = Rdt_store.Record.max_dv_len + 1 });
  Alcotest.(check bool) "n far too large" true
    (bad { base with n = 100_000_000_000 });
  Alcotest.(check bool) "negative duration" true (bad { base with duration = -1.0 });
  List.iter
    (fun x ->
      let name what = Printf.sprintf "%s = %g" what x in
      Alcotest.(check bool) (name "duration") true (bad { base with duration = x });
      Alcotest.(check bool) (name "sample interval") true
        (bad { base with sample_interval = x });
      Alcotest.(check bool) (name "lazy GC period") true
        (bad { base with gc = Sim_config.Local_lazy { period = x } });
      Alcotest.(check bool) (name "coordinated GC period") true
        (bad { base with gc = Sim_config.Coordinated { period = x } });
      Alcotest.(check bool) (name "crash time") true
        (bad
           {
             base with
             faults = [ { Sim_config.crash_at = x; pid = 0; repair_after = 1.0 } ];
           });
      Alcotest.(check bool) (name "repair time") true
        (bad
           {
             base with
             faults = [ { Sim_config.crash_at = 1.0; pid = 0; repair_after = x } ];
           });
      Alcotest.(check bool) (name "send interval") true
        (bad_workload { base.workload with send_mean_interval = x });
      Alcotest.(check bool) (name "checkpoint interval") true
        (bad_workload { base.workload with basic_ckpt_mean_interval = x });
      Alcotest.(check bool) (name "max delay") true
        (bad_net { base.net with max_delay = x }))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0 ];
  List.iter
    (fun p ->
      let name what = Printf.sprintf "%s = %g" what p in
      Alcotest.(check bool) (name "reply probability") true
        (bad_workload { base.workload with reply_probability = p });
      Alcotest.(check bool) (name "loss probability") true
        (bad_net { base.net with loss_probability = p }))
    [ Float.nan; -0.1; 1.5; Float.infinity ];
  Alcotest.(check bool) "NaN min delay" true
    (bad_net { base.net with min_delay = Float.nan });
  Alcotest.(check bool) "zero delays are fine" false
    (bad_net { base.net with min_delay = 0.0; max_delay = 0.0 });
  Alcotest.(check bool) "certain loss and reply are fine" false
    (bad_net { base.net with loss_probability = 1.0 }
    || bad_workload { base.workload with reply_probability = 1.0 });
  Alcotest.(check bool) "negative ckpt_bytes" true
    (bad { base with ckpt_bytes = -5 });
  Alcotest.(check bool) "zero ckpt_bytes is fine" false
    (bad { base with ckpt_bytes = 0 });
  Alcotest.(check bool) "more than one shard" true (bad { base with shards = 2 });
  Alcotest.(check bool) "overlapping faults" true
    (bad
       {
         base with
         faults =
           [
             { Sim_config.crash_at = 5.0; pid = 0; repair_after = 10.0 };
             { Sim_config.crash_at = 8.0; pid = 0; repair_after = 1.0 };
           ];
       });
  (* Lemma 1's recovery line is exact only under RDT *)
  Alcotest.(check bool) "crash faults under a non-RDT protocol" true
    (bad
       {
         base with
         protocol = (Helpers.protocol "none");
         gc = Sim_config.No_gc;
         faults = [ { Sim_config.crash_at = 5.0; pid = 0; repair_after = 1.0 } ];
       })

(* Live heap words a default (unrecorded) n=8 run on the memory store
   leaves behind, beyond what was live before it: RDT-LGC bounds each
   store at n checkpoints and the trace records nothing, so nothing the
   run keeps may grow with its length.  Sampling every [duration / 10]
   keeps the series the same size at every length. *)
(* [Gc.stat] counts live words exactly after a compaction (the
   [quick_stat] figure lags a major cycle behind).  The run itself
   leaves about 3.8k words at either length; an archive of every
   checkpoint (one vector of n words plus header and slot per index, about
   10.1 words per checkpoint) adds about 0.60M words at T and 2.40M at
   4T. *)
let bounded_memory_slack = 50_000

(* Live words a default n=8 run of [duration] leaves behind, or one
   created with [~record:true], and the events the trace holds. *)
let live_words_after_run ?record ~duration () =
  let cfg =
    {
      Sim_config.default with
      n = 8;
      seed = 7;
      duration;
      sample_interval = duration /. 10.0;
    }
  in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let t = Runner.create ?record cfg in
  Runner.run t;
  Gc.compact ();
  let words = (Gc.stat ()).Gc.live_words - before in
  ignore (Sys.opaque_identity t);
  (words, Rdt_ccp.Trace.length (Runner.trace t))

let test_bounded_memory () =
  let short, _ = live_words_after_run ~duration:8_000.0 () in
  let long, _ = live_words_after_run ~duration:32_000.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "live words at 4T (%d) within %d of T (%d)" long
       bounded_memory_slack short)
    true
    (abs (long - short) < bounded_memory_slack)

(* Live heap bytes a recorded run leaves behind per trace event.
   Everything else the run keeps is bounded (see above), so at this
   length the figure is the trace's own cost: 2.34 bytes per event with
   a header byte per event, 3.59 with three varints per event, and 16
   with two [int] words.  [Gc.stat] after [Gc.compact] on both sides,
   for the reason given above. *)
let max_trace_bytes_per_event = 3.0

let test_trace_bytes_per_event () =
  let words, events = live_words_after_run ~record:true ~duration:8_000.0 () in
  let per_event = float_of_int (words * (Sys.word_size / 8)) /. float_of_int events in
  if per_event > max_trace_bytes_per_event then
    Alcotest.failf "%.2f live bytes per trace event over %d events (bound %.1f)"
      per_event events max_trace_bytes_per_event

let suite =
  [
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    Alcotest.test_case "seed changes execution" `Quick
      test_seed_changes_execution;
    Alcotest.test_case "all RDT protocols run clean" `Slow
      test_all_protocols_run_clean;
    Alcotest.test_case "no-gc keeps everything" `Quick test_no_gc_keeps_everything;
    Alcotest.test_case "rdt-lgc collects" `Quick test_local_gc_collects;
    Alcotest.test_case "coordinated gc" `Quick test_coordinated_gc;
    Alcotest.test_case "simple gc" `Quick test_simple_gc;
    Alcotest.test_case "lazy local gc" `Quick test_lazy_local_gc;
    Alcotest.test_case "lazy dominates incremental pointwise" `Quick
      test_lazy_dominates_incremental_pointwise;
    Alcotest.test_case "oracle gc" `Quick test_oracle_gc;
    Alcotest.test_case "gc effectiveness ordering" `Slow
      test_gc_effectiveness_ordering;
    Alcotest.test_case "rdt-lgc sends no control messages" `Quick
      test_local_gc_needs_no_control_messages;
    Alcotest.test_case "bound under stress" `Slow test_bound_under_stress;
    Alcotest.test_case "lossy network" `Quick test_lossy_network;
    Alcotest.test_case "reordering network" `Quick test_reordering_network;
    Alcotest.test_case "crash/recovery runs" `Quick test_crash_recovery_runs;
    Alcotest.test_case "crash/recovery consistency" `Quick
      test_crash_recovery_consistency;
    Alcotest.test_case "crash/recovery with causal knowledge" `Quick
      test_crash_recovery_causal_knowledge;
    Alcotest.test_case "concurrent crashes" `Quick test_concurrent_crashes;
    Alcotest.test_case "crash with coordinated gc" `Quick
      test_crash_with_coordinated_gc;
    Alcotest.test_case "coordinator crash during rounds" `Quick
      test_coordinator_crash_during_rounds;
    Alcotest.test_case "participant crash during rounds" `Quick
      test_participant_crash_during_rounds;
    Alcotest.test_case "crash with lossy network" `Quick
      test_crash_with_lossy_network;
    Alcotest.test_case "faults under every protocol" `Slow
      test_faults_under_every_protocol;
    Alcotest.test_case "memory does not grow with run length" `Quick
      test_bounded_memory;
    Alcotest.test_case "a recorded trace costs at most 3 bytes per event"
      `Quick test_trace_bytes_per_event;
    Alcotest.test_case "muted trace survives rollback" `Quick
      test_muted_trace_survives_rollback;
    Alcotest.test_case "an unrecorded run refuses its trace readers" `Quick
      test_unrecorded_run_refuses_readers;
    Alcotest.test_case "over-collecting mutant caught" `Quick
      test_overcollect_caught;
    Alcotest.test_case "over-collection breaks the invariant" `Quick
      test_overcollect_breaks_invariant;
    Alcotest.test_case "series recorded" `Quick test_series_recorded;
    Alcotest.test_case "summary accounting" `Quick test_summary_accounting;
    Alcotest.test_case "config validation" `Quick
      test_validation_rejects_bad_configs;
  ]
