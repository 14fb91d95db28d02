(* The simulator workloads: [Runner] with FDAS + RDT-LGC, timed from
   outside.

   The untraced pass times [Runner.run] alone.  The traced pass runs the
   same configuration three ways — untraced, with trace recording muted,
   and with every seam wrapped — and attributes the traced run's time to
   the layers behind the seams:
   - the collector: each middleware's hooks are replaced by timed
     wrappers around [Rdt_lgc.hooks] of the run's collector;
   - the durable store: each stable store's backend is replaced by a timed
     wrapper around [Log_store.backend] of the run's log store (memory
     stores get a counting backend, so eliminations are counted there too);
   - the protocol: the configuration's protocol makes instances whose
     [need_forced] is timed. *)

module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload
module Protocol = Rdt_protocols.Protocol
module Middleware = Rdt_protocols.Middleware
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Stable_store = Rdt_storage.Stable_store
module Dv_archive = Rdt_storage.Dv_archive
module Log_store = Rdt_store.Log_store
module Trace = Rdt_ccp.Trace
module Engine = Rdt_sim.Engine
module Series = Rdt_metrics.Series
module Harness = Rdt_verify.Harness

let durable_workload = "sim-durable"

(* Crash-faulted processes and when (as fractions of the run) they fail. *)
let crashes = [ (3, 0.2); (7, 0.4); (11, 0.6); (15, 0.8) ]

(* sim-durable's store: fsync only when a segment is sealed, 1 MiB
   segments and a 1 MiB compaction floor, in place of the default's fsync
   every 64 appends, 256 KiB and 4 KiB.  With the default, one 4 KiB
   checkpoint elimination in four compacts, each compaction makes four
   fsyncs, and the run spends about 45% of its host time blocked on the
   disk, so its time follows the latency of the host's shared disk rather
   than the store's code.  Here the store still appends, seals, compacts
   and fsyncs in every run, and the blocked share is about 10%. *)
let durable_store_config =
  {
    Log_store.default_config with
    fsync = Log_store.Never;
    segment_target_bytes = 1 lsl 20;
    compact_min_dead_bytes = 1 lsl 20;
  }

let config ~workload ~scale ~seed ~dir =
  let full = scale = Catalog.Full in
  let base ~n ~duration pattern =
    {
      Sim_config.default with
      n;
      seed;
      duration;
      workload = { Workload.default with pattern };
      sample_interval = Float.max 1.0 (duration /. 50.0);
      shards = 1;
    }
  in
  match workload with
  | "sim-small" ->
    base ~n:8 ~duration:(if full then 200_000.0 else 2_000.0) Workload.Uniform
  | "sim-wide" ->
    base
      ~n:(if full then 256 else 32)
      ~duration:(if full then 800.0 else 20.0)
      (Workload.Client_server { servers = (if full then 16 else 4) })
  | "sim-durable" ->
    let duration = if full then 1200.0 else 60.0 in
    let c = base ~n:16 ~duration Workload.Uniform in
    {
      c with
      workload = { c.workload with Workload.basic_ckpt_mean_interval = 2.0 };
      ckpt_bytes = 4096;
      store =
        Sim_config.Durable { dir; config = durable_store_config };
      faults =
        List.map
          (fun (pid, at) ->
            { Sim_config.pid; crash_at = at *. duration; repair_after = 5.0 })
          crashes;
    }
  | w -> invalid_arg ("Sim_bench.config: not a sim workload: " ^ w)

(* --- seams ------------------------------------------------------------------ *)

type probes = {
  spans : Spans.t;
  need_forced : Spans.seam;
  mutable forced : int;
  new_dependency : Spans.seam;
  checkpoint_stored : Spans.seam;
  rollback : Spans.seam;
  append : Spans.seam;
  eliminate : Spans.seam;
  truncate : Spans.seam;
  mutable memory_eliminations : int;
  mutable trace_records : int;
}

(* The collector hooks cost well under a microsecond each unless a disk
   write happens inside them, so they are sampled only when no store
   span can nest inside (see Spans). *)
let probes spans ~durable =
  let seam name ~period = Spans.seam spans name ~period in
  let gc_period = if durable then 1 else 64 in
  {
    spans;
    need_forced = seam "protocols.need_forced" ~period:64;
    forced = 0;
    new_dependency = seam "gc.new_dependency" ~period:gc_period;
    checkpoint_stored = seam "gc.checkpoint_stored" ~period:gc_period;
    rollback = seam "gc.rollback" ~period:1;
    append = seam "store.append" ~period:1;
    eliminate = seam "store.eliminate" ~period:1;
    truncate = seam "store.truncate" ~period:1;
    memory_eliminations = 0;
    trace_records = 0;
  }

let timed p seam f x =
  let k = Spans.enter p.spans seam in
  let v = f x in
  Spans.leave p.spans seam k;
  v

let timed_protocol p (proto : Protocol.t) =
  {
    proto with
    Protocol.make =
      (fun ~n ~me ->
        let inst = proto.Protocol.make ~n ~me in
        {
          inst with
          Protocol.need_forced =
            (fun ~local_dv ~incoming ->
              let k = Spans.enter p.spans p.need_forced in
              let forced = inst.Protocol.need_forced ~local_dv ~incoming in
              Spans.leave p.spans p.need_forced k;
              if forced then p.forced <- p.forced + 1;
              forced);
        });
  }

let instrument p r =
  Trace.on_event (Runner.trace r) (fun _ -> p.trace_records <- p.trace_records + 1);
  for pid = 0 to (Runner.config r).Sim_config.n - 1 do
    let mw = Runner.middleware r pid in
    (match Runner.collector r pid with
    | Some c ->
      let h = Rdt_lgc.hooks c in
      Middleware.set_hooks mw
        {
          Middleware.on_new_dependency =
            timed p p.new_dependency h.Middleware.on_new_dependency;
          on_checkpoint_stored =
            timed p p.checkpoint_stored h.Middleware.on_checkpoint_stored;
          on_rollback = (fun ~li -> timed p p.rollback (fun li -> h.Middleware.on_rollback ~li) li);
        }
    | None -> ());
    Stable_store.set_backend (Middleware.store mw)
      (match Runner.log_store r pid with
      | Some ls ->
        let b = Log_store.backend ls in
        {
          Stable_store.b_store = timed p p.append b.Stable_store.b_store;
          b_eliminate = timed p p.eliminate b.Stable_store.b_eliminate;
          b_truncate_above =
            (fun ~index ->
              timed p p.truncate (fun index -> b.Stable_store.b_truncate_above ~index) index);
        }
      | None ->
        {
          Stable_store.b_store = ignore;
          b_eliminate = (fun _ -> p.memory_eliminations <- p.memory_eliminations + 1);
          b_truncate_above = (fun ~index:_ -> ());
        })
  done

(* --- one run (in its own process) -------------------------------------------------- *)

(* The traced arm carries its probes; the others run the stack as is. *)
type arm = Untraced | Muted | Traced of probes

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let summary_gates (cfg : Sim_config.t) (s : Runner.summary) =
  let n = cfg.Sim_config.n in
  let over limit a =
    List.filter_map
      (fun (pid, v) -> if v > limit then Some (Printf.sprintf "p%d=%d" pid v) else None)
      (List.mapi (fun pid v -> (pid, v)) (Array.to_list a))
  in
  let retained = Array.fold_left ( + ) 0 s.Runner.final_retained in
  let peak_over = over (n + 1) s.Runner.peak_retained in
  let final_over = over n s.Runner.final_retained in
  [
    Report.check "peak-retained<=n+1" (peak_over = []) (String.concat " " peak_over);
    Report.check "final-retained<=n" (final_over = []) (String.concat " " final_over);
    Report.check "stored=eliminated+retained"
      (s.Runner.stored_total = s.Runner.eliminated_total + retained)
      (Printf.sprintf "stored %d, eliminated %d, retained %d" s.Runner.stored_total
         s.Runner.eliminated_total retained);
    Report.check "mean-retained>=optimal"
      (s.Runner.mean_total_retained >= s.Runner.mean_optimal_retained)
      (Printf.sprintf "mean %g, optimal %g" s.Runner.mean_total_retained
         s.Runner.mean_optimal_retained);
  ]

(* Each pid's on-disk live set must be exactly what its stable store
   retains once the run ends. *)
let durable_gate r =
  let n = (Runner.config r).Sim_config.n in
  let bad =
    List.filter_map
      (fun pid ->
        match Runner.log_store r pid with
        | None -> Some (Printf.sprintf "p%d has no log store" pid)
        | Some ls ->
          let disk = Log_store.live_indices ls in
          let mem = Stable_store.retained_indices (Middleware.store (Runner.middleware r pid)) in
          if disk = mem then None else Some (Printf.sprintf "p%d disk/memory differ" pid))
      (List.init n Fun.id)
  in
  Report.check "store-live=retained" (bad = []) (String.concat "; " bad)

(* Summed log-store statistics, then — stores closed — the recovery scan
   a restarted process pays, timed on one process's log. *)
let store_values r ~dir =
  let n = (Runner.config r).Sim_config.n in
  let stats =
    List.filter_map (fun pid -> Option.map Log_store.stats (Runner.log_store r pid))
      (List.init n Fun.id)
  in
  let sum f = float (List.fold_left (fun acc s -> acc + f s) 0 stats) in
  let values =
    [
      ("store.bytes_written", sum (fun s -> s.Log_store.disk_bytes + s.Log_store.bytes_reclaimed));
      ("store.syncs", sum (fun s -> s.Log_store.syncs));
      ("store.compactions", sum (fun s -> s.Log_store.compactions));
      ("store.bytes_reclaimed", sum (fun s -> s.Log_store.bytes_reclaimed));
      ("store.segments", sum (fun s -> s.Log_store.segments));
    ]
  in
  Runner.close_stores r;
  let t0 = Spans.now_ns () in
  let ls =
    Log_store.create ~config:durable_store_config ~pid:0 ~dir:(Filename.concat dir "p0") ()
  in
  let t1 = Spans.now_ns () in
  Log_store.close ls;
  values @ [ ("store.reopen_ms", float (t1 - t0) *. 1e-6) ]

let digest (s : Runner.summary) = Digest.to_hex (Digest.string (Marshal.to_string s []))

let mb_of_words w = w *. float (Sys.word_size / 8) /. 1048576.0

(* Per-layer numbers one traced run yields on its own. *)
let seam_values p ~wall_s ~durable =
  let seams =
    [
      p.need_forced; p.new_dependency; p.checkpoint_stored; p.rollback; p.append; p.eliminate;
      p.truncate;
    ]
  in
  let calls sm = float sm.Spans.calls in
  let eliminated = if durable then p.eliminate.Spans.calls else p.memory_eliminations in
  let gc_calls =
    p.new_dependency.Spans.calls + p.checkpoint_stored.Spans.calls + p.rollback.Spans.calls
  in
  let p99_us name =
    Report.percentile (Array.map float (Spans.durations p.spans name)) 0.99 /. 1e3
  in
  [
    ( "sim.other_self_s",
      wall_s -. List.fold_left (fun acc sm -> acc +. Spans.top_s sm) 0.0 seams );
    ("ccp.trace.records", float p.trace_records);
    ("protocols.need_forced.calls", calls p.need_forced);
    ("protocols.need_forced.forced", float p.forced);
    ("protocols.need_forced.self_s", Spans.self_s p.need_forced);
    ("protocols.need_forced.ns_per_call", Spans.ns_per_call p.need_forced);
    ("gc.new_dependency.calls", calls p.new_dependency);
    ("gc.new_dependency.self_s", Spans.self_s p.new_dependency);
    ("gc.checkpoint_stored.calls", calls p.checkpoint_stored);
    ("gc.checkpoint_stored.self_s", Spans.self_s p.checkpoint_stored);
    ("gc.rollback.calls", calls p.rollback);
    ("gc.rollback.self_s", Spans.self_s p.rollback);
    ("gc.eliminated", float eliminated);
    ("gc.eliminated_per_call", if gc_calls = 0 then 0.0 else float eliminated /. float gc_calls);
  ]
  @
  if not durable then []
  else
    [
      ("store.append.calls", calls p.append);
      ("store.append.self_s", Spans.self_s p.append);
      ("store.append.p99_us", p99_us "store.append");
      ("store.eliminate.calls", calls p.eliminate);
      ("store.eliminate.self_s", Spans.self_s p.eliminate);
      ("store.eliminate.p99_us", p99_us "store.eliminate");
      ("store.truncate.calls", calls p.truncate);
      ("store.truncate.self_s", Spans.self_s p.truncate);
    ]

(* One run: checks, summary digest, and named values — the raw
   measurements plus, for the traced arm, its per-layer metrics. *)
let run_once ~workload ~scale ~seed ~dir ~arm ~measure_live =
  let cfg = config ~workload ~scale ~seed ~dir in
  let cfg =
    match arm with
    | Traced p -> { cfg with Sim_config.protocol = timed_protocol p cfg.Sim_config.protocol }
    | Untraced | Muted -> cfg
  in
  let live_before = (Gc.quick_stat ()).Gc.live_words in
  let r = Runner.create cfg in
  (match arm with
  | Untraced -> ()
  | Muted -> Trace.set_recording (Runner.trace r) false
  | Traced p -> instrument p r);
  let a0 = allocated () in
  let wall_ns =
    match arm with
    | Traced p ->
      let root = Spans.enter_root p.spans "sim.run" in
      Runner.run r;
      Spans.leave_root p.spans root
    | Untraced | Muted ->
      let t0 = Spans.now_ns () in
      Runner.run r;
      Spans.now_ns () - t0
  in
  let alloc_words = allocated () -. a0 in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let live_words =
    if measure_live then begin
      Gc.full_major ();
      let w = (Gc.quick_stat ()).Gc.live_words - live_before in
      ignore (Sys.opaque_identity r);
      w
    end
    else 0
  in
  let wall_s = float wall_ns *. 1e-9 in
  let stats = Engine.stats (Runner.engine r) in
  let s = Runner.summary r in
  let n = cfg.Sim_config.n in
  let durable = Runner.durable r in
  let checks = summary_gates cfg s @ if durable then [ durable_gate r ] else [] in
  let archive_words =
    List.fold_left
      (fun acc pid -> acc + (n * Dv_archive.count (Middleware.archive (Runner.middleware r pid))))
      0 (List.init n Fun.id)
  in
  let i = float in
  let values =
    [
      ("wall_s", wall_s);
      ("alloc_words", alloc_words);
      ("top_heap_words", i top_heap_words);
      ("live_words", i live_words);
      ("mean_total_retained", s.Runner.mean_total_retained);
      ("peak_retained_global", i s.Runner.peak_retained_global);
      ("forced_checkpoints", i s.Runner.forced_checkpoints);
      ("app_messages", i s.Runner.app_messages);
      ("piggyback_words", i s.Runner.piggyback_words);
      ("sim.events", i stats.Engine.events);
      ("sim.sent", i stats.Engine.sent);
      ("sim.delivered", i stats.Engine.delivered);
      ("storage.stored", i s.Runner.stored_total);
      ("storage.eliminated", i s.Runner.eliminated_total);
      ("storage.peak_per_process", i (Array.fold_left max 0 s.Runner.peak_retained));
      ("storage.archive_words", i archive_words);
      ("recovery.sessions", i s.Runner.recovery_sessions);
      ("recovery.rolled_back", i s.Runner.checkpoints_rolled_back);
      ("core.samples", i (Series.length (Runner.total_retained_series r)));
    ]
    @ (if durable then store_values r ~dir else [])
    @ match arm with Traced p -> seam_values p ~wall_s ~durable | Untraced | Muted -> []
  in
  if durable then Harness.rm_rf dir;
  (checks, digest s, values)

type outcome = Report.check list * string * (string * float) list

(* Entry point of the arm process ([stack_bench arm]). *)
let arm_main ~workload ~scale ~seed ~arm ~measure_live ~dir ~result ~spans_csv =
  Harness.rm_rf dir;
  let durable = String.equal workload durable_workload in
  let spans = Spans.create () in
  let arm =
    match arm with
    | "untraced" -> Untraced
    | "muted" -> Muted
    | "traced" ->
      Spans.begin_run spans (workload ^ "/traced");
      Traced (probes spans ~durable)
    | a -> invalid_arg ("unknown arm " ^ a)
  in
  let outcome = run_once ~workload ~scale ~seed ~dir ~arm ~measure_live in
  (match (arm, spans_csv) with
  | Traced _, Some path -> Spans.write_csv spans path
  | _ -> ());
  Self.write_result result (outcome : outcome)

(* --- the workload (spawning the runs) ------------------------------------------- *)

(* [Runner.create] alone: engine, workload generators, middlewares,
   collectors and (durable) store directories, up to the initial
   checkpoints.  A create can take a few microseconds, so it is repeated
   and the median over all creates reported.  The creates are spread over
   the workload's whole measuring time, a batch before each round of runs
   (at least 9, until 25 ms of creates or 100 of them): sim-durable's
   creates make store directories and files, and a hiccup of the host's
   disk lasting about a second would set the median of a single batch. *)
let setup_times ~workload ~scale ~seed ~tmp =
  let rec go i spent acc =
    if i >= 9 && (spent >= 0.025 || i >= 100) then acc
    else begin
      let dir = Filename.concat tmp (Printf.sprintf "setup-%d" i) in
      let cfg = config ~workload ~scale ~seed ~dir in
      let t0 = Spans.now_ns () in
      let r = Runner.create cfg in
      let t = float (Spans.now_ns () - t0) *. 1e-9 in
      Runner.close_stores r;
      Harness.rm_rf dir;
      go (i + 1) (spent +. t) (t :: acc)
    end
  in
  go 0 0.0 []

let arm_argv ~workload ~scale ~seed ~arm ~measure_live ~dir ~result ~spans_csv =
  [ "arm"; "--workload"; workload; "--scale"; Catalog.scale_name scale; "--seed";
    string_of_int seed; "--arm"; arm; "--dir"; dir; "--result"; result ]
  @ (if measure_live then [ "--live-words" ] else [])
  @ match spans_csv with Some p -> [ "--spans"; p ] | None -> []

(* Run arm [arm] ("untraced", "muted" or "traced") as run [i] of this
   workload, in a fresh process. *)
let spawn_arm ~workload ~scale ~seed ~tmp ?spans_csv i arm ~measure_live =
  let result = Filename.concat tmp (Printf.sprintf "arm-%d.result" i) in
  let dir = Filename.concat tmp (Printf.sprintf "run-%d" i) in
  let status =
    Self.run (arm_argv ~workload ~scale ~seed ~arm ~measure_live ~dir ~result ~spans_csv)
  in
  match (Self.read_result result : outcome option) with
  | Some outcome -> outcome
  | None ->
    ( [
        Report.check (arm ^ "-run-completed") false
          (Printf.sprintf "run %d: %s, no result" i (Self.describe status));
      ],
      "",
      [] )


let value vs k = Option.value ~default:nan (List.assoc_opt k vs)

let end_to_end ~setup ~runs =
  let med f = Report.median (Array.of_list (List.map f runs)) in
  let vs = List.hd runs in
  let v = value vs in
  let msgs = v "app_messages" in
  [
    ("setup_s", Report.median setup);
    ("run_s", med (fun vs -> value vs "wall_s"));
    ("events_per_s", med (fun vs -> value vs "sim.events" /. value vs "wall_s"));
    ("alloc_words_per_event", med (fun vs -> value vs "alloc_words" /. value vs "sim.events"));
    ("peak_heap_mb", med (fun vs -> mb_of_words (value vs "top_heap_words")));
    ("retained_mean", v "mean_total_retained");
    ("retained_peak", v "peak_retained_global");
    ("forced_per_msg", v "forced_checkpoints" /. msgs);
    ("piggyback_words_per_msg", v "piggyback_words" /. msgs);
  ]
  @
  if List.mem_assoc "store.bytes_written" vs then
    [ ("store_bytes_per_ckpt", v "store.bytes_written" /. v "storage.stored") ]
  else []

(* Medians over the rounds of a traced pass.  The trace's share and the
   tracing overhead compare runs of one round, made back to back. *)
let per_layer rounds =
  let arm a round =
    let _, _, vs = List.assoc a round in
    vs
  in
  let med f = Report.median (Array.of_list (List.map f rounds)) in
  let wall a round = value (arm a round) "wall_s" in
  let layer =
    List.filter
      (fun k ->
        match List.assoc_opt k Catalog.table with
        | Some i -> i.Catalog.kind = Catalog.Per_layer
        | None -> false)
      (List.map fst (arm "traced" (List.hd rounds)))
  in
  List.map (fun k -> (k, med (fun r -> value (arm "traced" r) k))) layer
  @ (if not (List.mem_assoc "muted" (List.hd rounds)) then []
     else
       [
         ("ccp.trace.share", med (fun r -> 100.0 *. (1.0 -. (wall "muted" r /. wall "untraced" r))));
         ( "ccp.trace.heap_mb",
           med (fun r ->
               mb_of_words (value (arm "untraced" r) "live_words" -. value (arm "muted" r) "live_words"))
         );
       ])
  @ [ ("trace_overhead_pct", med (fun r -> 100.0 *. ((wall "traced" r /. wall "untraced" r) -. 1.0))) ]

(* Rounds repeated until the next round would overrun [seconds], each a
   batch of set-ups in this process and then runs, each in a fresh
   process.  Untraced, a round is one run, and there are at least two so
   the summary digest is compared.  Traced, a round is one run of each
   arm — untraced, muted and traced — in an order that rotates from round
   to round, so a drift of the host lands on every arm alike.  A run with
   crash faults has no muted arm: rolling back truncates the recorded
   trace, which a muted trace does not have.  The first traced run writes
   the span file. *)
let run ~workload ~scale ~seed ~seconds ~trace ~tmp ~spans_csv =
  let setup = ref [] in
  let faulted = (config ~workload ~scale ~seed ~dir:tmp).Sim_config.faults <> [] in
  let arms =
    if not trace then [ "untraced" ]
    else if faulted then [ "untraced"; "traced" ]
    else [ "untraced"; "muted"; "traced" ]
  in
  let k = List.length arms in
  let round r =
    setup := setup_times ~workload ~scale ~seed ~tmp @ !setup;
    List.init k (fun j ->
        let arm = List.nth arms ((r + j) mod k) in
        let spans_csv = if r = 0 then spans_csv else None in
        ( arm,
          spawn_arm ~workload ~scale ~seed ~tmp ?spans_csv ((r * k) + j) arm
            ~measure_live:(trace && arm <> "traced") ))
  in
  let start = Spans.now_ns () in
  let rec rounds r acc =
    let acc = round r :: acc in
    let elapsed = float (Spans.now_ns () - start) *. 1e-9 in
    let per_round = elapsed /. float (r + 1) in
    if r + 1 >= (if trace then 1 else 2) && elapsed +. per_round > seconds then List.rev acc
    else rounds (r + 1) acc
  in
  let rounds = rounds 0 [] in
  let all = List.concat_map (List.map snd) rounds in
  let digests =
    List.sort_uniq String.compare
      (List.filter_map (fun (_, d, _) -> if d = "" then None else Some d) all)
  in
  let checks =
    Report.merge_checks
      (List.concat_map (fun (cs, _, _) -> cs) all
      @ [
          Report.check "summary-digest-repeats" (List.length digests = 1)
            (Printf.sprintf "%d runs, %d distinct digests" (List.length all)
               (List.length digests));
        ])
  in
  let attempted =
    List.fold_left
      (fun acc (_, _, vs) ->
        acc + int_of_float (Option.value ~default:0.0 (List.assoc_opt "sim.delivered" vs)))
      0 all
  in
  let ok = List.for_all (fun (c : Report.check) -> c.ok) checks in
  let metrics =
    if List.exists (fun (_, d, _) -> d = "") all then []
    else
      end_to_end ~setup:(Array.of_list !setup)
        ~runs:(List.map (fun round -> let _, _, vs = List.assoc "untraced" round in vs) rounds)
      @ if trace then per_layer rounds else []
  in
  {
    Report.workload;
    seed;
    scale = Catalog.scale_name scale;
    traced = trace;
    attempted = max 1 attempted;
    failed = (if ok then 0 else max 1 attempted);
    checks;
    metrics;
  }
