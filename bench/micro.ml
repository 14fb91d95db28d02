(* EXP-E4: micro-benchmarks (Bechamel) for the paper's complexity claims
   (Section 4.5):

   - the merged FDAS + RDT-LGC receive handler stays O(n), with a small
     constant over plain FDAS (one Bechamel test per n and variant);
   - the checkpoint event is O(1) beyond the store write;
   - Algorithm 3 (rollback) is cheap even with n retained checkpoints;
   - the simulator engine dispatches events without allocating (pooled
     event queue);
   - the analysis substrate (recovery line, Theorem 1, zigzag BFS) scales.

   Methodology.  Every test is steady-state: the driven state returns to
   an equivalent configuration after each call, so Bechamel's OLS linear
   regression over run counts is meaningful.  Three instances are sampled
   simultaneously per run batch — monotonic clock, minor words allocated
   and words promoted — and each is regressed against the run count, so
   next to [ns_per_run] we report [allocs_per_run] (minor words/event)
   and [promoted_per_run]: the allocation telemetry that makes hot-path
   regressions visible in BENCH_micro.json (DESIGN.md §10).

   Noise control: sub-microsecond benchmarks need both more measurement
   budget and larger run counts per sample than millisecond ones before
   the regression stabilizes — with the default 1 s quota and run counts
   starting at 1 (where a single sample sits at the timer-noise floor)
   the n=8 and incremental groups used to report *negative* r² (the OLS
   fit explained less variance than the sample mean, i.e. pure noise).
   Each group therefore declares a measurement class scaled to its
   per-run cost: [`Fast] (sub-microsecond) groups get a long quota, a
   raised sample limit and a raised starting run count (every sample then
   measures >= ~10 us of work, far above clock-read jitter) with *linear*
   run-count growth: the regression still sees a wide span of run counts,
   but no sample grows past a few milliseconds, so a single scheduler
   preemption cannot become a high-leverage outlier the way it can on the
   geometric schedule's 100 ms tail samples; [`Medium] a moderate version
   of the same; [`Slow] (>= 100 us
   per run, where even a run count of 1 is well above the noise floor)
   the Bechamel defaults with a short quota.  Groups must not mix cost
   scales: a millisecond test in a [`Fast] group would burn the whole
   quota on a handful of samples (which is why the CCP full-rebuild
   baseline lives in its own [`Slow] group).  Drivers in the low tens of
   nanoseconds additionally run [k] calls per measured run (see
   [make_batched]): their per-call cost is below single-measurement
   jitter, and reported figures are divided back to per-event values.
   Finally, a group containing a *negative* r² is re-measured (up to
   three attempts): a negative fit means an external event (scheduler
   preemption, major-GC slice) landed in a high-leverage sample, i.e. the
   trial was contaminated, not that the workload is non-linear.  Every
   reported r-square must therefore come out >= 0 on an otherwise idle
   machine; `make perf` diffs the resulting JSON against the committed
   baseline. *)

open Bechamel
module Middleware = Rdt_protocols.Middleware
module Protocol = Rdt_protocols.Protocol
module Control = Rdt_protocols.Control

(* Batched tests: a driver in the low tens of nanoseconds is smaller than
   the clock-read jitter of a single measurement, so its regression never
   stabilizes no matter the quota.  For those drivers one Bechamel run
   executes [k] calls in a counted loop (still allocation-free) and
   [run_group] divides every reported per-run figure by [k], so the table
   and BENCH_micro.json keep per-event semantics.  Batching also smooths
   amortized drivers whose per-call cost is bimodal (e.g. a checkpoint
   that triggers a collection sweep every few calls). *)
let batch_scale : (string, float) Hashtbl.t = Hashtbl.create 16

let make_batched ~name ~k f =
  if k <= 1 then Test.make ~name (Staged.stage f)
  else begin
    Hashtbl.replace batch_scale name (float_of_int k);
    Test.make ~name
      (Staged.stage (fun () ->
           for _ = 1 to k do
             f ()
           done))
  end
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Global_gc = Rdt_gc.Global_gc
module Trace = Rdt_ccp.Trace
module Figures = Rdt_scenarios.Figures
module Script = Rdt_scenarios.Script
module Session = Rdt_recovery.Session
module Process_stack = Rdt_recovery.Process_stack
module Table = Rdt_metrics.Table

(* The middleware of a fresh process stack whose trace is muted,
   optionally with RDT-LGC attached. *)
let stack_middleware ~n ~with_lgc =
  let trace = Trace.create ~n in
  let stack =
    Process_stack.create ~n ~me:0 ~protocol:Protocol.fdas ~trace ~with_lgc ()
  in
  Trace.set_recording trace false;
  Process_stack.middleware stack

let receive_setup ~n ~with_lgc =
  let mw = stack_middleware ~n ~with_lgc in
  (* zero-allocation driver: one reusable message from a fixed peer whose
     control borrows the generator's vector; each call advances the peer's
     interval so every receive brings exactly one fresh dependency (the
     new-causal-info path of Algorithm 2) *)
  let peer_interval = ref 0 in
  let dv = Array.make n 0 in
  let msg =
    { Middleware.msg_id = 1; src = 1; control = Control.borrow ~dv ~index:0 }
  in
  fun () ->
    incr peer_interval;
    dv.(1) <- !peer_interval;
    Middleware.receive mw msg ~now:0.0

let receive_tests =
  List.concat_map
    (fun n ->
      (* only the ~150 ns n=8 case needs batching; the larger vectors are
         comfortably above the noise floor on their own *)
      let k = if n <= 8 then 8 else 1 in
      [
        make_batched
          ~name:(Printf.sprintf "receive/fdas/n=%d" n)
          ~k
          (receive_setup ~n ~with_lgc:false);
        make_batched
          ~name:(Printf.sprintf "receive/fdas+lgc/n=%d" n)
          ~k
          (receive_setup ~n ~with_lgc:true);
      ])
    [ 8; 64; 256 ]

(* Checkpoint event with merged collection: the collector keeps the store
   bounded, so the loop is steady-state. *)
let checkpoint_setup ~n =
  let mw = stack_middleware ~n ~with_lgc:true in
  fun () -> Middleware.basic_checkpoint mw ~now:0.0

let checkpoint_test ~n =
  (* batched: the per-call cost is bimodal (most checkpoints are cheap,
     some trigger a collection sweep), so a batch amortizes a full cycle *)
  make_batched
    ~name:(Printf.sprintf "checkpoint+collect/n=%d" n)
    ~k:16 (checkpoint_setup ~n)

(* n=256 lives in its own [`Medium] group: at ~20 us per call (a 256-slot
   DV snapshot per checkpoint) a batch of 16 costs ~300 us, and under the
   [`Fast] class's start=100 every sample then aggregates ~30 ms — the
   3 s quota buys only a dozen samples and the regression came out at
   r² ~= 0.33 (see DESIGN.md §10).  This is the "groups must not mix
   cost scales" rule applied within a driver family; the row names keep
   the "checkpoint+collect/" prefix so the structural group set in
   BENCH_micro.json is unchanged. *)
let checkpoint_tests_small = List.map (fun n -> checkpoint_test ~n) [ 8; 64 ]
let checkpoint_tests_large = [ checkpoint_test ~n:256 ]

(* Engine throughput: the simulator's own dispatch loop, isolated from
   any protocol work.  [queue-churn] is the event queue alone (schedule +
   fire of a pre-existing value: only [pop]'s boxed result allocates once
   the columns have grown); [send-deliver] adds the network model and the
   engine's Deliver dispatch. *)
module Event_queue = Rdt_sim.Event_queue
module Engine = Rdt_sim.Engine
module Network = Rdt_sim.Network

let queue_churn_setup () =
  let q = Event_queue.create () in
  let now = ref 0.0 in
  (* grow the columns before measuring *)
  Event_queue.add_keyed q ~time:0.0 ~u:0 ~v:0 0;
  ignore (Event_queue.pop q);
  (* the key is the entry's own counter, as the engine's are *)
  let v = ref 0 in
  fun () ->
    now := !now +. 1.0;
    incr v;
    Event_queue.add_keyed q ~time:!now ~u:0 ~v:!v 0;
    ignore (Event_queue.pop q)

let send_deliver_setup () =
  let e = Engine.create ~n:2 ~seed:42 ~net:Network.default () in
  Engine.set_receiver e 1 (fun ~src:_ _ -> ());
  fun () ->
    Engine.send e ~src:0 ~dst:1 0;
    ignore (Engine.step e)

let engine_tests =
  [
    make_batched ~name:"engine/queue-churn" ~k:32 (queue_churn_setup ());
    make_batched ~name:"engine/send-deliver" ~k:32 (send_deliver_setup ());
  ]

(* Engine whole-run throughput: one whole simulation per run (create,
   seed ring-forwarding message chains, run to quiescence — ~42k
   deliveries), at two process counts.  Unlike the steady-state groups
   this driver pays the full setup each call, and the run-to-run workload
   is identical by the engine's determinism, so the OLS regression stays
   meaningful.

   The cases are sized so the in-flight event population (~1k entries)
   is large enough for the event queue's memory layout to matter.
   (chains) is the number of concurrent forwarding chains each process
   starts and (hops) their length, so in-flight events = n * chains
   throughout the run.  Rows in this group additionally report
   simulation events per second (decorated after measurement; the event
   count is counted once per case). *)
let engine_whole_run_cases = [ (256, 4, 40); (1024, 1, 40) ]

let engine_whole_run ~n ~chains ~hops () =
  let e = Engine.create ~n ~seed:42 ~net:Network.default () in
  for p = 0 to n - 1 do
    Engine.set_receiver e p (fun ~src:_ msg ->
        if msg > 0 then Engine.send e ~src:p ~dst:((p + 1) mod n) (msg - 1))
  done;
  for p = 0 to n - 1 do
    for _ = 1 to chains do
      Engine.send e ~src:p ~dst:((p + 1) mod n) hops
    done
  done;
  Engine.run e;
  (Engine.stats e).Engine.events

let engine_whole_run_name n = Printf.sprintf "engine/whole-run/n=%d" n

(* events per case; lazy so modes that never measure the group (smoke,
   perf-diff) don't pay the dry runs *)
let engine_whole_run_events =
  lazy
    (List.map
       (fun (n, chains, hops) ->
         (engine_whole_run_name n, engine_whole_run ~n ~chains ~hops ()))
       engine_whole_run_cases)

let engine_whole_run_tests =
  List.map
    (fun (n, chains, hops) ->
      Test.make ~name:(engine_whole_run_name n)
        (Staged.stage (fun () -> ignore (engine_whole_run ~n ~chains ~hops ()))))
    engine_whole_run_cases

(* Algorithm 3 on the worst-case state: every process retains n
   checkpoints and the rebuild pins them all again (no elimination), so
   repeated calls are equivalent. *)
let rollback_setup ~n =
  let s = Figures.worst_case ~n in
  let lgc =
    match Script.collector s 0 with Some l -> l | None -> assert false
  in
  let li = Script.dv s 0 in
  fun () -> Rdt_lgc.on_rollback lgc ~li

let rollback_tests =
  List.map
    (fun n ->
      Test.make
        ~name:(Printf.sprintf "algorithm3-rollback/n=%d" n)
        (Staged.stage (rollback_setup ~n)))
    [ 8; 32; 64 ]

(* Ablation: the incremental UC/CCB update on a new dependency vs
   recomputing the Theorem-2 retained set from scratch (what a collector
   without the paper's bookkeeping would do on every event). *)
let incremental_update_setup ~n =
  let s = Figures.worst_case ~n in
  let lgc =
    match Script.collector s 0 with Some l -> l | None -> assert false
  in
  fun () -> Rdt_lgc.on_new_dependency lgc 1

let recompute_setup ~n =
  let s = Figures.worst_case ~n in
  let store = Script.store s 0 in
  let live_dv = Script.dv s 0 in
  fun () ->
    let entries = Array.of_list (Rdt_storage.Stable_store.retained_view store) in
    ignore (Global_gc.collectable { Global_gc.entries; live_dv } ~li:live_dv)

let ablation_ns = [ 8; 32; 64 ]

(* ~15 ns per call: the flagship case for batching *)
let incremental_ccb_tests =
  List.map
    (fun n ->
      make_batched
        ~name:(Printf.sprintf "per-event/incremental-ccb/n=%d" n)
        ~k:64
        (incremental_update_setup ~n))
    ablation_ns

(* Microseconds per call and hundreds to thousands of words allocated:
   a [`Medium] cost scale, so these rows are measured in a group of their
   own rather than beside the nanosecond CCB rows. *)
let recompute_tests =
  List.map
    (fun n ->
      Test.make
        ~name:(Printf.sprintf "per-event/theorem2-recompute/n=%d" n)
        (Staged.stage (recompute_setup ~n)))
    ablation_ns

(* Pure analysis functions on the worst-case state. *)
let snapshots_of s =
  Array.init (Script.n s) (fun pid ->
      Session.snapshot_of (Script.middleware s pid))

let recovery_line_tests =
  List.map
    (fun n ->
      let s = Figures.worst_case ~n in
      let snaps = snapshots_of s in
      make_batched
        ~name:(Printf.sprintf "recovery-line/n=%d" n)
        ~k:(if n <= 8 then 8 else 1)
        (fun () ->
          ignore
            (Rdt_recovery.Recovery_line.from_snapshots snaps ~faulty:[ 0 ])))
    [ 8; 32; 64 ]

let theorem1_tests =
  List.map
    (fun n ->
      let s = Figures.worst_case ~n in
      let snaps = snapshots_of s in
      let li = Global_gc.last_interval_vector snaps in
      make_batched
        ~name:(Printf.sprintf "theorem1-retained/n=%d" n)
        ~k:(if n <= 8 then 8 else 1)
        (fun () -> ignore (Global_gc.retained snaps.(0) ~li)))
    [ 8; 32; 64 ]

(* One BFS from s^0_0; each run also sorts the messages by sender and
   send interval. *)
let zigzag_tests =
  List.map
    (fun n ->
      let s = Figures.worst_case ~n in
      let ccp = Script.ccp s in
      Test.make
        ~name:(Printf.sprintf "zigzag-reach/n=%d" n)
        (Staged.stage (fun () ->
             ignore (Rdt_ccp.Zigzag.reach ccp ~src:{ Rdt_ccp.Ccp.pid = 0; index = 0 }))))
    [ 4; 8; 16 ]

(* Incremental CCP engine vs from-scratch rebuild.  A 10k-event trace
   stands for a long checked run: the fuzz harness queries the
   ground-truth CCP after every op, so the cost that matters is
   appending the events since the last query and asking again, not
   replaying the whole history. *)
let big_trace_events = 10_000

(* Records the benchmark execution into [trace], fresh from
   [Trace.init_with_initial_checkpoints], until it holds [events] events
   ([big_trace_events] by default), calling [after_message] after each
   message; returns the number of messages. *)
let record_big_trace ?(events = big_trace_events) trace ~after_message =
  let n = Trace.n trace in
  let count = ref n in
  let i = ref 0 in
  while !count < events do
    let src = !i mod n in
    let dst = (src + 1 + (!i / n mod (n - 1))) mod n in
    Rdt_ccp.Trace.message trace ~src ~dst;
    after_message ();
    count := !count + 2;
    if !i mod 5 = 4 then begin
      Rdt_ccp.Trace.checkpoint trace src;
      incr count
    end;
    incr i
  done;
  !i

let build_big_trace () =
  let trace = Trace.init_with_initial_checkpoints ~n:8 in
  ignore (record_big_trace trace ~after_message:ignore);
  trace

let ccp_rebuild_test =
  let trace = build_big_trace () in
  Test.make
    ~name:(Printf.sprintf "ccp/full-rebuild/%dk-events" (big_trace_events / 1000))
    (Staged.stage (fun () -> ignore (Rdt_ccp.Ccp.of_trace trace)))

(* One run tracks the same execution live: a view subscribed to a fresh
   trace is queried after every message while the trace grows to 10k
   events.  Every run starts from the same empty state, so the per-run
   cost is stationary; the figures are divided back per message (append
   plus query), the unit the rebuild is compared against. *)
let ccp_incremental_test =
  let name =
    Printf.sprintf "ccp/incremental-append/%dk-events" (big_trace_events / 1000)
  in
  let run () =
    let trace = Trace.init_with_initial_checkpoints ~n:8 in
    let view = Rdt_ccp.Ccp.Incremental.of_trace trace in
    record_big_trace trace ~after_message:(fun () ->
        ignore (Rdt_ccp.Ccp.Incremental.ccp view))
  in
  Hashtbl.replace batch_scale name (float_of_int (run ()));
  Test.make ~name (Staged.stage (fun () -> ignore (run ())))

(* What a crash point's deep oracles pay for the structural checks: one
   zigzag sweep (a BFS from every checkpoint) that yields both the
   useless checkpoints and the first RDT violation. *)
let rdt_sweep_test =
  let ccp = Rdt_ccp.Ccp.of_trace (build_big_trace ()) in
  Test.make
    ~name:(Printf.sprintf "rdt-check/sweep/%dk-events" (big_trace_events / 1000))
    (Staged.stage (fun () -> ignore (Rdt_ccp.Rdt_check.analyze ~limit:1 ccp)))

(* all three drivers take milliseconds per run, so they share a [`Slow]
   group *)
let ccp_group =
  ( "incremental CCP engine vs full rebuild",
    `Slow,
    [ ccp_rebuild_test; ccp_incremental_test; rdt_sweep_test ] )

(* --- trace logs ----------------------------------------------------------- *)

(* The byte-packed trace (DESIGN.md §10) on the same n=8 execution, at
   100k events.  [trace/record/n=8] records it into a fresh trace per run,
   figures divided back per recorded event: the chunk allocations are in
   it, as in a long run.  [trace/iter/100k-events] walks the recorded
   trace once per run through [Trace.iter], the k-way merge of the
   per-process logs that every analysis and [Trace.to_string] reads. *)
let trace_bench_events = 100_000

let trace_record_test =
  let name = "trace/record/n=8" in
  Hashtbl.replace batch_scale name (float_of_int trace_bench_events);
  Test.make ~name
    (Staged.stage (fun () ->
         let trace = Trace.init_with_initial_checkpoints ~n:8 in
         ignore (record_big_trace ~events:trace_bench_events trace ~after_message:ignore)))

let trace_iter_test =
  let trace = Trace.init_with_initial_checkpoints ~n:8 in
  ignore (record_big_trace ~events:trace_bench_events trace ~after_message:ignore);
  Test.make
    ~name:(Printf.sprintf "trace/iter/%dk-events" (trace_bench_events / 1000))
    (Staged.stage (fun () -> Trace.iter trace ignore))

(* --- durable log store (lib/store) ------------------------------------- *)

module Log_store = Rdt_store.Log_store
module Stable_store = Rdt_storage.Stable_store

let bench_tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rdtgc_bench_store_%d_%d" (Unix.getpid ()) !counter)

let store_entry ?(size_bytes = 256) index =
  {
    Stable_store.index;
    dv = [| index; 0; 0; 0 |];
    taken_at = float_of_int index;
    size_bytes;
    payload = index;
  }

(* Steady state: append s^i and collect s^(i-8) — the live set stays at 8
   and auto-compaction keeps the directory bounded, so each call is the
   durable cost of one checkpoint under a working collector. *)
let store_append_setup ?size_bytes ~config () =
  let t = Log_store.create ~config ~pid:0 ~dir:(bench_tmp_dir ()) () in
  for j = 0 to 7 do
    Log_store.append t (store_entry ?size_bytes j)
  done;
  let i = ref 8 in
  fun () ->
    Log_store.append t (store_entry ?size_bytes !i);
    Log_store.eliminate t ~index:(!i - 8);
    incr i

let store_append_tests =
  (* fsync=never and fsync=every64 pay their durability cost in lumps (a
     kernel writeback or an fsync every 64 records, plus an auto-compaction
     every few dozen eliminations), so one run covers a full 64-append
     cycle and the figures are divided back per append.  fsync=always pays
     the same cost on every call and needs no batching. *)
  [
    make_batched ~name:"store/append+collect/fsync=never" ~k:64
      (store_append_setup
         ~config:
           { Log_store.default_config with Log_store.fsync = Log_store.Never }
         ());
    make_batched ~name:"store/append+collect/fsync=every64" ~k:64
      (store_append_setup ~config:Log_store.default_config ());
    Test.make ~name:"store/append+collect/fsync=always,batch=1"
      (Staged.stage
         (store_append_setup
            ~config:
              {
                Log_store.default_config with
                Log_store.fsync = Log_store.Always;
                batch_records = 1;
              }
            ()));
    (* the checkpoint size of the full-stack durable workload: encode,
       filler and CRC scale with the payload, so here they are the bulk of
       the CPU cost rather than a small share of it *)
    make_batched ~name:"store/append+collect/size=4096" ~k:64
      (store_append_setup ~size_bytes:4096 ~config:Log_store.default_config ());
  ]

(* The checksum of one 4 KiB checkpoint record (4,096 filler bytes plus a
   short header), computed in place as the segment writer does. *)
let crc32_tests =
  let b = Bytes.init 4203 (fun i -> Char.chr ((i * 167) land 0xff)) in
  [
    Test.make ~name:"crc32/4KiB"
      (Staged.stage (fun () ->
           ignore
             (Sys.opaque_identity (Rdt_store.Crc32.bytes b ~pos:0 ~len:4203))));
  ]

(* One full compaction cycle: 16 checkpoints written and obsoleted, then
   the sealed garbage rewritten away.  Thanks to the paper's n+1 bound the
   rewrite set is tiny regardless of how much was collected. *)
let store_compact_setup () =
  let config = { Log_store.default_config with Log_store.auto_compact = false } in
  let t = Log_store.create ~config ~pid:0 ~dir:(bench_tmp_dir ()) () in
  Log_store.append t (store_entry 0);
  let top = ref 0 in
  fun () ->
    for j = 1 to 16 do
      Log_store.append t (store_entry (!top + j))
    done;
    for j = 0 to 15 do
      Log_store.eliminate t ~index:(!top + j)
    done;
    top := !top + 16;
    Log_store.compact t

let store_recovery_scan_setup ~records =
  let config =
    {
      Log_store.default_config with
      Log_store.auto_compact = false;
      fsync = Log_store.Never;
    }
  in
  let dir = bench_tmp_dir () in
  let t = Log_store.create ~config ~pid:0 ~dir () in
  for i = 0 to records - 1 do
    Log_store.append t (store_entry i);
    if i >= 8 then Log_store.eliminate t ~index:(i - 8)
  done;
  Log_store.close t;
  (* opening never writes, so every run scans the identical directory *)
  fun () ->
    let ro = Log_store.create ~config ~pid:0 ~dir () in
    Log_store.close ro

let store_tests =
  store_append_tests
  @ [
      Test.make ~name:"store/compact-cycle/16-ckpts"
        (Staged.stage (store_compact_setup ()));
      Test.make ~name:"store/recovery-scan/512-ckpts"
        (Staged.stage (store_recovery_scan_setup ~records:512));
    ]

type row = {
  name : string;
  ns : float option;  (** monotonic ns per run (OLS slope) *)
  r2 : float option;  (** goodness of fit of the time regression *)
  minor_words : float option;  (** minor-heap words allocated per run *)
  promoted : float option;  (** words promoted to the major heap per run *)
  ev_s : float option;  (** whole-run rows only: simulation events per second *)
}

(* Measurement class per cost scale; see the methodology note above.  The
   slope of a sub-microsecond benchmark is dominated by timer quantization
   and scheduling noise unless every sample aggregates enough runs to sit
   well above the noise floor (hence [start]) and the regression still
   sees a wide span of run counts within the quota (hence the faster
   geometric growth). *)
let cfg_of_speed speed =
  let limit, quota, start, sampling =
    match speed with
    | `Fast -> (2000, 3.0, 100, `Linear 20)
    | `Medium -> (1000, 1.5, 10, `Linear 10)
    | `Slow -> (2000, 0.75, 1, `Geometric 1.01)
    (* I/O-bound groups: per-run costs are milliseconds once a full
       durability cycle is batched in, so a wide run-count span needs a
       long quota *)
    | `SlowIO -> (2000, 3.0, 1, `Geometric 1.01)
    (* whole-simulation drivers (tens of milliseconds per run): even one
       run dwarfs the noise floor, so run counts grow one at a time and a
       handful of samples suffice; a geometric schedule would blow the
       quota on a single huge tail sample *)
    | `WholeRun -> (60, 3.0, 1, `Linear 1)
  in
  Benchmark.cfg ~limit ~quota:(Time.second quota) ~start ~sampling ~kde:None
    ()

(* Minor words allocated, read from [Gc.minor_words ()].  Bechamel's own
   [minor_allocated] reads [Gc.quick_stat], whose counter OCaml 5.1
   advances only at minor collections: a driver that allocates a few
   hundred words per run then reports 0 over a whole sample. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let measure_group ~speed tests =
  let clock = Toolkit.Instance.monotonic_clock in
  let minor = minor_words in
  let promoted = Toolkit.Instance.promoted in
  let raw =
    Benchmark.all (cfg_of_speed speed)
      [ clock; minor; promoted ]
      (Test.make_grouped ~name:"" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | None -> None
    | Some ols -> (
      match Analyze.OLS.estimates ols with
      | Some (e :: _) -> Some e
      | Some [] | None -> None)
  in
  let times = Analyze.all ols clock raw in
  let minors = Analyze.all ols minor raw in
  let promotions = Analyze.all ols promoted raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let clean =
          (* tests are grouped under an anonymous root; drop its "/" *)
          if String.length name > 0 && name.[0] = '/' then
            String.sub name 1 (String.length name - 1)
          else name
        in
        let scale =
          match Hashtbl.find_opt batch_scale clean with
          | Some k -> k
          | None -> 1.0
        in
        let per_event = Option.map (fun v -> v /. scale) in
        {
          name = clean;
          ns = per_event (estimate times name);
          r2 = Analyze.OLS.r_square ols;
          minor_words = per_event (estimate minors name);
          promoted = per_event (estimate promotions name);
          ev_s = None;
        }
        :: acc)
      times []
  in
  List.sort compare rows

(* A negative r² means the linear fit explained less variance than the
   sample mean: the measurement was contaminated by an external event (a
   scheduler preemption or major-GC slice landing in a high-leverage
   sample), not that the workload is non-linear in the run count.  Such a
   group is re-measured, like re-running a contaminated trial; after
   [max_attempts] the attempt with the fewest contaminated rows is kept
   so a persistently noisy machine still terminates with data. *)
let run_group ~speed tests =
  let max_attempts = 3 in
  let contaminated rows =
    List.length
      (List.filter (fun r -> match r.r2 with Some v -> v < 0.0 | None -> true)
         rows)
  in
  let rec go attempt best =
    let rows = measure_group ~speed tests in
    let bad = contaminated rows in
    let best =
      match best with
      | Some (_, best_bad) when best_bad <= bad -> best
      | _ -> Some (rows, bad)
    in
    if bad = 0 || attempt >= max_attempts then (
      (match best with
      | Some (_, n) when n > 0 ->
        Printf.printf
          "  (%d benchmark(s) still noise-contaminated after %d attempts)\n%!"
          n attempt
      | _ -> ());
      match best with Some (rows, _) -> rows | None -> rows)
    else (
      Printf.printf
        "  (re-measuring group: %d noise-contaminated benchmark(s), attempt \
         %d/%d)\n\
         %!"
        bad (attempt + 1) max_attempts;
      go (attempt + 1) best)
  in
  go 1 None

(* Decorate the whole-run rows with simulation events per second; rows
   from other groups pass through untouched. *)
let decorate_whole_run rows =
  List.map
    (fun row ->
      match List.assoc_opt row.name (Lazy.force engine_whole_run_events) with
      | None -> row
      | Some events ->
        let ev_s =
          match row.ns with
          | Some ns when ns > 0.0 -> Some (float_of_int events /. (ns *. 1e-9))
          | _ -> None
        in
        { row with ev_s })
    rows

let print_rows rows =
  let whole_run = List.exists (fun r -> Option.is_some r.ev_s) rows in
  let t =
    Table.create
      ~columns:
        ([
           ("benchmark", Table.Left);
           ("time/op", Table.Right);
           ("r^2", Table.Right);
           ("words/op", Table.Right);
           ("promoted/op", Table.Right);
         ]
        @ if whole_run then [ ("ev/s", Table.Right) ] else [])
  in
  let fmt_ns ns =
    if ns >= 1_000_000.0 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1_000.0 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.1f ns" ns
  in
  let fmt_opt f = function Some v -> f v | None -> "-" in
  List.iter
    (fun row ->
      let name = if row.name = "" then "(root)" else row.name in
      Table.add_row t
        ([
           name;
           fmt_opt fmt_ns row.ns;
           fmt_opt (Printf.sprintf "%.4f") row.r2;
           fmt_opt (Printf.sprintf "%.1f") row.minor_words;
           fmt_opt (Printf.sprintf "%.1f") row.promoted;
         ]
        @
        if whole_run then [ fmt_opt (Printf.sprintf "%.0f") row.ev_s ] else []))
    rows;
  Table.print t

(* --- machine-readable output ------------------------------------------- *)

let json_path = "BENCH_micro.json"

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float = function
  | Some f when Float.is_finite f -> Printf.sprintf "%.4f" f
  | Some _ | None -> "null"

let write_json ~mode ~wall_time_s ~rows ~speedup =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"rdtgc-bench-micro/4\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string buf
    (Printf.sprintf "  \"domains\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"wall_time_s\": %.3f,\n" wall_time_s);
  Buffer.add_string buf "  \"benchmarks\": [\n";
  List.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s, \
            \"allocs_per_run\": %s, \"promoted_per_run\": %s, \
            \"events_per_sec\": %s }%s\n"
           (json_escape row.name) (json_float row.ns) (json_float row.r2)
           (json_float row.minor_words)
           (json_float row.promoted) (json_float row.ev_s)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"derived\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"ccp_incremental_speedup\": %s\n"
       (json_float speedup));
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  let oc = open_out json_path in
  output_string oc (Buffer.contents buf);
  close_out oc

let find_ns rows prefix =
  List.find_map
    (fun row ->
      if
        String.length row.name >= String.length prefix
        && String.sub row.name 0 (String.length prefix) = prefix
      then row.ns
      else None)
    rows

let micro_groups =
  [
    ( "receive handler (plain FDAS vs merged FDAS+RDT-LGC)",
      `Fast,
      receive_tests );
    ("checkpoint event with collection", `Fast, checkpoint_tests_small);
    ( "checkpoint event with collection (large n)",
      `Medium,
      checkpoint_tests_large );
    ("engine throughput (event queue, dispatch)", `Fast, engine_tests);
    ("engine whole-run throughput", `WholeRun, engine_whole_run_tests);
    ( "ablation: per-event GC cost, incremental CCB",
      `Fast,
      incremental_ccb_tests );
    ( "ablation: per-event GC cost, full Theorem-2 recompute",
      `Medium,
      recompute_tests );
    ("Algorithm 3 rollback rebuild", `Medium, rollback_tests);
    ("recovery line from stored DVs", `Medium, recovery_line_tests);
    ("Theorem 1 retained-set computation", `Fast, theorem1_tests);
    ("zigzag reachability (analysis substrate)", `Medium, zigzag_tests);
    ccp_group;
    ( "byte-packed trace: record, k-way merge read",
      `Slow,
      [ trace_record_test; trace_iter_test ] );
    ("CRC-32 of a 4 KiB record", `Medium, crc32_tests);
    ( "durable log store: append path, compaction, recovery scan",
      `SlowIO,
      store_tests );
  ]

(* [smoke] is the CI-oriented subset: just the incremental-CCP criterion
   with a small quota, a few seconds end to end. *)
let smoke_groups = [ ccp_group ]

let run ~mode () =
  Exp_support.section "EXP-E4: micro-benchmarks (Section 4.5 complexity claims)"
    "Per-operation cost via Bechamel OLS.  The paper claims the merged\n\
     implementation adds no asymptotic cost to the checkpointing protocol\n\
     (receive stays O(n)), Algorithm 2 events are O(1) amortized beyond\n\
     the DV scan, and Algorithm 3 runs in O(n log n) with n checkpoints\n\
     stored.  words/op and promoted/op are the per-event allocation\n\
     telemetry: the receive and engine hot paths must sit at ~0 words in\n\
     steady state, and a checkpoint must cost exactly its store-boundary\n\
     snapshot (DESIGN.md \xc2\xa710).  The CCP group measures the harness's\n\
     own analysis engine: appending to a live view vs replaying the\n\
     whole trace.";
  let wall0 = Unix.gettimeofday () in
  let groups =
    match mode with `Smoke -> smoke_groups | `Micro -> micro_groups
  in
  let rows =
    List.concat_map
      (fun (name, speed, tests) ->
        Exp_support.subsection name;
        let rows = run_group ~speed tests in
        let rows = decorate_whole_run rows in
        print_rows rows;
        rows)
      groups
  in
  let wall_time_s = Unix.gettimeofday () -. wall0 in
  let speedup =
    match (find_ns rows "ccp/full-rebuild", find_ns rows "ccp/incremental-append")
    with
    | Some rebuild, Some incr when incr > 0.0 -> Some (rebuild /. incr)
    | _ -> None
  in
  let mode_name = match mode with `Smoke -> "smoke" | `Micro -> "micro" in
  write_json ~mode:mode_name ~wall_time_s ~rows ~speedup;
  (match speedup with
  | Some s ->
    Printf.printf "\nincremental CCP speedup over full rebuild: %.0fx\n" s
  | None -> ());
  Printf.printf "machine-readable results written to %s\n" json_path;
  Exp_support.check
    "incremental CCP appends >= 5x faster than a from-scratch rebuild"
    (match speedup with Some s -> s >= 5.0 | None -> false)

let all () = run ~mode:`Micro ()
let smoke () = run ~mode:`Smoke ()
