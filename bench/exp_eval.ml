(* The practical evaluation the paper defers to future work (Section 6),
   experiments E1-E3, E5, E6 of DESIGN.md. *)

open Exp_support
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload
module Protocol = Rdt_protocols.Protocol
module Series = Rdt_metrics.Series
module Stats = Rdt_metrics.Stats
module Table = Rdt_metrics.Table
module Oracle = Rdt_gc.Oracle
module Oracles = Rdt_verify.Oracles

let seeds = [ 11; 23; 37 ]

(* --- E1: retained checkpoints over time, per collector ----------------- *)

let exp_e1 () =
  section "EXP-E1: uncollected checkpoints per collector (paper Section 6)"
    "Mean and peak of the total retained stable checkpoints, sampled over\n\
     the run, per garbage collector.  'optimal' is instantaneous Theorem-1\n\
     knowledge sampled inside the RDT-LGC run — the unreachable lower\n\
     bound for any collector; 'n bound' checks the paper's per-process\n\
     guarantee for RDT-LGC.  Coordinated baselines exchange control\n\
     messages; RDT-LGC exchanges none.";
  let policies =
    [
      ("no-gc", Sim_config.No_gc);
      ("simple/5", Sim_config.Simple { period = 5.0 });
      ("coordinated/5", Sim_config.Coordinated { period = 5.0 });
      ("rdt-lgc", Sim_config.Local);
      ("oracle/2", Sim_config.Oracle_periodic { period = 2.0 });
    ]
  in
  let t =
    Table.create
      ~columns:
        [
          ("workload", Table.Left);
          ("n", Table.Right);
          ("collector", Table.Left);
          ("mean retained", Table.Right);
          ("± seeds", Table.Right);
          ("peak retained", Table.Right);
          ("mean/process", Table.Right);
          ("ctrl msgs", Table.Right);
        ]
  in
  let patterns =
    [
      (Workload.Uniform, "uniform");
      (Workload.Client_server { servers = 2 }, "client-server");
      (Workload.Bursty { burst = 3 }, "bursty:3");
    ]
  in
  let sizes = [ 4; 8 ] in
  let ok = ref true in
  List.iter
    (fun (pattern, pname) ->
      List.iter
        (fun n ->
          let optimal_mean = ref nan in
          List.iter
            (fun (gc_name, gc) ->
              let mean = Stats.create () in
              let peak = Stats.create () in
              let ctrl = Stats.create () in
              let optimal = Stats.create () in
              List.iter
                (fun seed ->
                  let cfg = base_config ~n ~seed ~gc ~pattern ~duration:80.0 in
                  let s = Runner.summary (run_sim cfg) in
                  Stats.add mean s.Runner.mean_total_retained;
                  Stats.add_int peak s.Runner.peak_retained_global;
                  Stats.add_int ctrl s.Runner.control_messages;
                  let opt = s.Runner.mean_optimal_retained in
                  if not (Float.is_nan opt) then Stats.add optimal opt;
                  (* the paper's bound: never more than n per process *)
                  let bound_ok =
                    Array.for_all (fun final -> final <= n)
                      s.Runner.final_retained
                    && Array.for_all (fun p -> p <= n + 1)
                         s.Runner.peak_retained
                  in
                  if gc = Sim_config.Local && not bound_ok then ok := false)
                seeds;
              if gc = Sim_config.Local then optimal_mean := Stats.mean optimal;
              Table.add_row t
                [
                  pname;
                  string_of_int n;
                  gc_name;
                  Table.fmt_float (Stats.mean mean);
                  Table.fmt_float (Stats.stddev mean);
                  Table.fmt_float (Stats.mean peak);
                  Table.fmt_float (Stats.mean mean /. float_of_int n);
                  Table.fmt_float ~decimals:0 (Stats.mean ctrl);
                ])
            policies;
          let opt = !optimal_mean in
          Table.add_row t
            [
              pname;
              string_of_int n;
              "(optimal)";
              Table.fmt_float opt;
              "-";
              "-";
              Table.fmt_float (opt /. float_of_int n);
              "0";
            ];
          Table.add_separator t)
        sizes)
    patterns;
  Table.print t;
  check "RDT-LGC respects the n (n+1 transient) bound in every run" !ok

(* --- E2: space overhead vs system size --------------------------------- *)

let exp_e2 () =
  section "EXP-E2: per-process space overhead vs system size (Section 4.5)"
    "RDT-LGC under a uniform workload as n grows.  The paper's bound is n\n\
     retained checkpoints per process (n+1 while storing a new one); in\n\
     practice the steady state sits far below the bound.";
  let t =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("mean/process", Table.Right);
          ("p95/process", Table.Right);
          ("max/process", Table.Right);
          ("bound n", Table.Right);
          ("bound hit?", Table.Left);
        ]
  in
  let sizes = [ 2; 4; 8; 16 ] in
  let ok = ref true in
  List.iter
    (fun n ->
      let values = ref [] in
      List.iter
        (fun seed ->
          let cfg =
            base_config ~n ~seed ~gc:Sim_config.Local ~pattern:Workload.Uniform
              ~duration:60.0
          in
          Array.iter
            (fun series ->
              List.iter (fun v -> values := v :: !values) (Series.values series))
            (Runner.retained_series (run_sim cfg)))
        seeds;
      let values = !values in
      let max_v = List.fold_left Float.max 0.0 values in
      if max_v > float_of_int n then ok := false;
      Table.add_row t
        [
          string_of_int n;
          Table.fmt_float (Stats.mean (Stats.of_list values));
          Table.fmt_float (Stats.percentile values ~p:95.0);
          Table.fmt_float ~decimals:0 max_v;
          string_of_int n;
          (if max_v >= float_of_int n then "yes" else "no");
        ])
    sizes;
  Table.print t;
  check "sampled per-process retention never exceeds n" !ok

(* --- E3: optimality in practice ---------------------------------------- *)

let exp_e3 () =
  section "EXP-E3: share of obsolete checkpoints collected (Theorems 4-5)"
    "Sweeps message and checkpoint rates; compares what RDT-LGC collected\n\
     against ground truth (Theorem 1 on the final CCP).  'causal optimum'\n\
     verifies Theorem 5: the retained set equals exactly what causal\n\
     knowledge permits, in every run.";
  let t =
    Table.create
      ~columns:
        [
          ("msg interval", Table.Right);
          ("ckpt interval", Table.Right);
          ("stored", Table.Right);
          ("collected", Table.Right);
          ("obsolete (oracle)", Table.Right);
          ("collected/obsolete", Table.Right);
          ("causal optimum?", Table.Left);
        ]
  in
  let send_means = [ 0.5; 1.0; 2.0 ] in
  let ckpt_means = [ 2.0; 5.0; 10.0 ] in
  let all_optimal = ref true in
  List.iter
    (fun send_mean ->
      List.iter
        (fun ckpt_mean ->
          let stored = ref 0 and collected = ref 0 and obsolete = ref 0 in
          let optimal = ref true in
          List.iter
            (fun seed ->
              let cfg =
                {
                  (base_config ~n:6 ~seed ~gc:Sim_config.Local
                     ~pattern:Workload.Uniform ~duration:60.0)
                  with
                  workload =
                    {
                      (base_workload Workload.Uniform) with
                      send_mean_interval = send_mean;
                      basic_ckpt_mean_interval = ckpt_mean;
                    };
                }
              in
              let run = run_sim cfg in
              let s = Runner.summary run in
              (* the trace-derived CCP contains every checkpoint ever
                 taken, so the oracle's obsolete set already includes the
                 collected ones *)
              let ccp = Runner.ccp run in
              stored := !stored + s.Runner.stored_total;
              collected := !collected + s.Runner.eliminated_total;
              obsolete := !obsolete + List.length (Oracle.obsolete ccp);
              (* Theorem 5 check: retained = Theorem-2 set *)
              if
                not
                  (List.is_empty
                     (Oracles.optimality ~stack:(Runner.stack run) ~ccp
                        ~exact:true ~op:(-1)))
              then optimal := false)
            seeds;
          if not !optimal then all_optimal := false;
          Table.add_row t
            [
              Table.fmt_float ~decimals:1 send_mean;
              Table.fmt_float ~decimals:1 ckpt_mean;
              string_of_int !stored;
              string_of_int !collected;
              string_of_int !obsolete;
              Table.fmt_ratio (float_of_int !collected) (float_of_int !obsolete);
              (if !optimal then "yes" else "NO");
            ])
        ckpt_means)
    send_means;
  Table.print t;
  Printf.printf
    "\n(the gap to 100%% is exactly the set of obsolete checkpoints whose\n\
     obsolescence is not derivable from causal knowledge — Theorem 5 says\n\
     no asynchronous collector can close it)\n";
  check "every run retained exactly the causal-knowledge optimum" !all_optimal

(* --- E5: forced-checkpoint overhead of the protocols ------------------- *)

let exp_e5 () =
  section "EXP-E5: forced-checkpoint overhead of the checkpointing protocols"
    "Context for 'off-the-shelf RDT protocols': forced checkpoints per\n\
     basic checkpoint under identical workloads (no GC so that non-RDT\n\
     protocols can be included).  CBR > FDI > FDAS is the expected\n\
     ordering among the RDT protocols; BCS is Z-cycle-free only.";
  let t =
    Table.create
      ~columns:
        [
          ("workload", Table.Left);
          ("protocol", Table.Left);
          ("rdt?", Table.Left);
          ("basic", Table.Right);
          ("forced", Table.Right);
          ("forced/basic", Table.Right);
        ]
  in
  let patterns =
    [
      (Workload.Uniform, "uniform");
      (Workload.Ring, "ring");
      (Workload.Client_server { servers = 2 }, "client-server");
    ]
  in
  let ordering_ok = ref true in
  List.iter
    (fun (pattern, pname) ->
      let forced_of = Hashtbl.create 8 in
      List.iter
        (fun (p : Protocol.t) ->
          let basic = ref 0 and forced = ref 0 in
          List.iter
            (fun seed ->
              let cfg =
                {
                  (base_config ~n:6 ~seed ~gc:Sim_config.No_gc ~pattern
                     ~duration:60.0)
                  with
                  protocol = p;
                }
              in
              let s = Runner.summary (run_sim cfg) in
              basic := !basic + s.Runner.basic_checkpoints;
              forced := !forced + s.Runner.forced_checkpoints)
            seeds;
          Hashtbl.replace forced_of p.Protocol.id !forced;
          Table.add_row t
            [
              pname;
              p.Protocol.id;
              (if p.Protocol.rdt then "yes" else "no");
              string_of_int !basic;
              string_of_int !forced;
              Table.fmt_float
                (float_of_int !forced /. float_of_int (max 1 !basic));
            ])
        Protocol.all;
      let f id = Hashtbl.find forced_of id in
      if not (f "fdas" <= f "fdi" && f "fdi" <= f "cbr") then
        ordering_ok := false;
      Table.add_separator t)
    patterns;
  Table.print t;
  check "FDAS <= FDI <= CBR forced-checkpoint ordering on every workload"
    !ordering_ok

(* --- E7: immediacy ablation -------------------------------------------- *)

let exp_e7 () =
  section "EXP-E7 (ablation): incremental RDT-LGC vs lazy Theorem-2 sweeps"
    "Both collectors use identical causal knowledge (Theorem 2 from the\n\
     process's own DV) and are purely asynchronous; RDT-LGC maintains the\n\
     retained set incrementally via UC/CCB reference counts on every\n\
     event, the lazy variant recomputes it from scratch every PERIOD.\n\
     The executions are byte-identical (same seeds, no control traffic),\n\
     so the gap isolates what the paper's 'collect as soon as the\n\
     condition holds' design buys: the bound n holds *always* instead of\n\
     only at sweep instants.";
  let t =
    Table.create
      ~columns:
        [
          ("collector", Table.Left);
          ("mean retained", Table.Right);
          ("peak retained", Table.Right);
          ("mean/process", Table.Right);
          ("peak > n?", Table.Left);
        ]
  in
  let n = 8 in
  let variants =
    [
      ("rdt-lgc (incremental)", Sim_config.Local);
      ("lazy sweep, period 1", Sim_config.Local_lazy { period = 1.0 });
      ("lazy sweep, period 5", Sim_config.Local_lazy { period = 5.0 });
      ("lazy sweep, period 15", Sim_config.Local_lazy { period = 15.0 });
      ("no-gc", Sim_config.No_gc);
    ]
  in
  let incremental_ok = ref true in
  List.iter
    (fun (name, gc) ->
      let mean = Stats.create () and peak = Stats.create () in
      let over_bound = ref false in
      List.iter
        (fun seed ->
          let cfg =
            base_config ~n ~seed ~gc ~pattern:Workload.Uniform ~duration:80.0
          in
          let s = Runner.summary (run_sim cfg) in
          Stats.add mean s.Runner.mean_total_retained;
          Stats.add_int peak s.Runner.peak_retained_global;
          if Array.exists (fun p -> p > n + 1) s.Runner.peak_retained then
            over_bound := true)
        seeds;
      if gc = Sim_config.Local && !over_bound then incremental_ok := false;
      Table.add_row t
        [
          name;
          Table.fmt_float (Stats.mean mean);
          Table.fmt_float (Stats.mean peak);
          Table.fmt_float (Stats.mean mean /. float_of_int n);
          (if !over_bound then "yes" else "no");
        ])
    variants;
  Table.print t;
  check "only the incremental collector holds the n+1 bound at all times"
    !incremental_ok

(* --- E6: recovery sessions and Algorithm 3 ----------------------------- *)

let exp_e6 () =
  section "EXP-E6: rollback sessions (Algorithm 3, global vs causal knowledge)"
    "Crash/recovery runs under RDT-LGC.  After each session the collector\n\
     state is rebuilt by Algorithm 3 — with the LI vector when the\n\
     recovery manager disseminates global knowledge, or from the local DV\n\
     alone.  Safety is re-audited against the post-recovery CCP.";
  let t =
    Table.create
      ~columns:
        [
          ("knowledge", Table.Left);
          ("seed", Table.Right);
          ("sessions", Table.Right);
          ("ckpts rolled back", Table.Right);
          ("retained after", Table.Right);
          ("safe?", Table.Left);
        ]
  in
  let knowledges = [ (`Global, "global (LI)"); (`Causal, "causal (DV)") ] in
  let all_safe = ref true in
  List.iter
    (fun (knowledge, kname) ->
      List.iter
        (fun seed ->
          let cfg =
            {
              (base_config ~n:5 ~seed ~gc:Sim_config.Local
                 ~pattern:Workload.Uniform ~duration:80.0)
              with
              knowledge;
              faults =
                [
                  { Sim_config.crash_at = 25.0; pid = 1; repair_after = 3.0 };
                  { Sim_config.crash_at = 55.0; pid = 3; repair_after = 4.0 };
                ];
            }
          in
          let run = run_sim cfg in
          let s = Runner.summary run in
          let safe =
            List.is_empty
              (Oracles.safety ~stack:(Runner.stack run) ~ccp:(Runner.ccp run)
                 ~op:(-1))
          in
          if not safe then all_safe := false;
          Table.add_row t
            [
              kname;
              string_of_int seed;
              string_of_int s.Runner.recovery_sessions;
              string_of_int s.Runner.checkpoints_rolled_back;
              string_of_int (Array.fold_left ( + ) 0 s.Runner.final_retained);
              (if safe then "yes" else "NO");
            ])
        seeds)
    knowledges;
  Table.print t;
  check "post-recovery collection is safe in every run" !all_safe

(* --- E8: recovery storms ------------------------------------------------ *)

let exp_e8 () =
  section "EXP-E8: recovery storms — collection under repeated failures"
    "Crash frequency sweep under FDAS + RDT-LGC.  Collection keeps running\n\
     through every session (Algorithm 3 rebuilds the collector after each\n\
     rollback), the storage bound holds throughout, and the rollback\n\
     depth is identical to a run without any collection — obsolete\n\
     checkpoints are, by construction, never recovery-relevant.";
  let t =
    Table.create
      ~columns:
        [
          ("crash period", Table.Right);
          ("knowledge", Table.Left);
          ("sessions", Table.Right);
          ("ckpts rolled back", Table.Right);
          ("mean retained", Table.Right);
          ("= no-gc rollbacks?", Table.Left);
        ]
  in
  let n = 5 in
  let crash_periods = [ 40.0; 20.0; 10.0 ] in
  let knowledges = [ (`Global, "global"); (`Causal, "causal") ] in
  let ok = ref true in
  List.iter
    (fun crash_period ->
      let faults =
        (* staggered crashes of rotating processes *)
        List.init
          (int_of_float (120.0 /. crash_period) - 1)
          (fun i ->
            {
              Sim_config.pid = i mod n;
              crash_at = crash_period *. float_of_int (i + 1);
              repair_after = 2.0;
            })
      in
      List.iter
        (fun (knowledge, kname) ->
          let sessions = Stats.create ()
          and undone = Stats.create ()
          and retained = Stats.create () in
          let same = ref true in
          List.iter
            (fun seed ->
              (* the collected and the no-gc execution, back to back *)
              let run gc =
                let cfg =
                  {
                    (base_config ~n ~seed ~gc ~pattern:Workload.Uniform
                       ~duration:120.0)
                    with
                    faults;
                    knowledge;
                  }
                in
                Runner.summary (run_sim cfg)
              in
              let s = run Sim_config.Local in
              let s_none = run Sim_config.No_gc in
              Stats.add_int sessions s.Runner.recovery_sessions;
              Stats.add_int undone s.Runner.checkpoints_rolled_back;
              Stats.add retained s.Runner.mean_total_retained;
              if not (Array.for_all (fun p -> p <= n + 1) s.Runner.peak_retained)
              then ok := false;
              if
                s.Runner.checkpoints_rolled_back
                <> s_none.Runner.checkpoints_rolled_back
              then begin
                same := false;
                ok := false
              end)
            seeds;
          Table.add_row t
            [
              Table.fmt_float ~decimals:0 crash_period;
              kname;
              Table.fmt_float ~decimals:1 (Stats.mean sessions);
              Table.fmt_float ~decimals:1 (Stats.mean undone);
              Table.fmt_float (Stats.mean retained);
              (if !same then "yes" else "NO");
            ])
        knowledges)
    crash_periods;
  Table.print t;
  check
    "bound holds through every storm; rollback depth identical to no-gc runs"
    !ok

let all () =
  let r1 = exp_e1 () in
  let r2 = exp_e2 () in
  let r3 = exp_e3 () in
  let r5 = exp_e5 () in
  let r6 = exp_e6 () in
  let r7 = exp_e7 () in
  let r8 = exp_e8 () in
  r1 && r2 && r3 && r5 && r6 && r7 && r8
