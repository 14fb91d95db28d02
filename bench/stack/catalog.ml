(* Every metric the benchmark reports: its unit, which direction is
   better, whether it is end-to-end or per-layer, and — for end-to-end
   metrics — the bound [selfcheck] holds two sets of same-seed runs to.

   A bound allows a worsening of [max (rel * |median|) abs].  [rel = 0]
   means the metric is a deterministic function of the seed and must
   repeat exactly.  These are same-seed bounds; BENCHMARK.json carries the
   looser cross-seed bounds, because there every run gets a fresh seed
   and so fresh inputs. *)

type better = Higher | Lower
type kind = End_to_end | Per_layer
type bound = { rel : float; abs : float }

type info = { unit_ : string; better : better; kind : kind }

let sim_workloads = [ "sim-small"; "sim-wide"; "sim-durable" ]
let workloads = sim_workloads @ [ "live-tcp" ]
let is_sim w = List.mem w sim_workloads

(* [Smoke] shrinks every workload to a size the test suite can afford;
   its numbers only show that the pipeline works. *)
type scale = Full | Smoke

let scale_name = function Full -> "full" | Smoke -> "smoke"

let scale_of_string = function
  | "full" -> Some Full
  | "smoke" -> Some Smoke
  | _ -> None

let exact = { rel = 0.0; abs = 0.0 }
let rel r = { rel = r; abs = 0.0 }

let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("run_s", "s", Lower);
    ("events_per_s", "events/s", Higher);
    ("ops_per_s", "ops/s", Higher);
    ("alloc_words_per_event", "words/event", Lower);
    ("peak_heap_mb", "MB", Lower);
    ("retained_mean", "ckpts", Lower);
    ("retained_peak", "ckpts", Lower);
    ("forced_per_msg", "ckpts/msg", Lower);
    ("piggyback_words_per_msg", "words/msg", Lower);
    ("store_bytes_per_ckpt", "bytes/ckpt", Lower);
    ("op_p50_ms", "ms", Lower);
    ("op_p99_ms", "ms", Lower);
    ("recovery_p50_ms", "ms", Lower);
    ("teardown_s", "s", Lower);
  ]

(* The end-to-end metrics every workload reports under one definition,
   in BENCHMARK.json's order: an outside runner reads each metric it
   lists from every workload, so it lists these and [drive] reports
   them.  The rest are specific to the sim or the live workloads and are
   printed and held to their bounds by [run] and [selfcheck]. *)
let shared_end_to_end =
  [ "setup_s"; "run_s"; "peak_heap_mb"; "retained_mean"; "retained_peak"; "forced_per_msg" ]

(* The durable workload's throughput and run time carry fsync latency,
   and sim-wide's a 635 MB heap, whose run-to-run spread is wider than
   the other workloads': a set of five runs spread 10-17% on sim-wide,
   and two set medians of its events_per_s once moved 10.1%. *)
let bound name ~workload =
  let noisy = List.mem workload [ "sim-durable"; "sim-wide" ] in
  match name with
  | "setup_s" -> { rel = 0.10; abs = 0.005 }
  | "run_s" | "events_per_s" | "ops_per_s" -> rel (if noisy then 0.15 else 0.10)
  | "alloc_words_per_event" -> rel 0.01
  | "peak_heap_mb" -> rel 0.05
  | "op_p50_ms" -> rel 0.20
  | "op_p99_ms" -> rel 0.25
  | "recovery_p50_ms" -> rel 0.15
  | "teardown_s" -> rel 0.10
  | _ -> exact

let ops = [ "checkpoint"; "send"; "deliver"; "drop"; "crash" ]

let per_layer =
  let count n = (n, "count", Lower) and secs n = (n, "s", Lower) in
  [
    ("sim.events", "count", Higher);
    ("sim.sent", "count", Higher);
    ("sim.delivered", "count", Higher);
    secs "sim.other_self_s";
    count "ccp.trace.records";
    ("ccp.trace.share", "%", Lower);
    ("ccp.trace.heap_mb", "MB", Lower);
    count "protocols.need_forced.calls";
    count "protocols.need_forced.forced";
    secs "protocols.need_forced.self_s";
    ("protocols.need_forced.ns_per_call", "ns", Lower);
    count "gc.new_dependency.calls";
    secs "gc.new_dependency.self_s";
    count "gc.checkpoint_stored.calls";
    secs "gc.checkpoint_stored.self_s";
    count "gc.rollback.calls";
    secs "gc.rollback.self_s";
    ("gc.eliminated", "count", Higher);
    ("gc.eliminated_per_call", "ckpts/call", Higher);
    count "storage.stored";
    ("storage.eliminated", "count", Higher);
    ("storage.peak_per_process", "ckpts", Lower);
    ("storage.archive_words", "words", Lower);
    count "store.append.calls";
    secs "store.append.self_s";
    ("store.append.p99_us", "us", Lower);
    count "store.eliminate.calls";
    secs "store.eliminate.self_s";
    ("store.eliminate.p99_us", "us", Lower);
    count "store.truncate.calls";
    secs "store.truncate.self_s";
    count "store.syncs";
    count "store.compactions";
    ("store.bytes_written", "bytes", Lower);
    ("store.bytes_reclaimed", "bytes", Higher);
    count "store.segments";
    ("store.reopen_ms", "ms", Lower);
    count "recovery.sessions";
    ("recovery.rolled_back", "ckpts", Lower);
    count "core.samples";
  ]
  @ List.concat_map
      (fun op ->
        let p = "live.op." ^ op in
        [
          (p ^ ".count", "count", Higher);
          (p ^ ".p50_ms", "ms", Lower);
          (p ^ ".p99_ms", "ms", Lower);
        ])
      ops
  @ [
      secs "live.register_s";
      ("live.store.reopen_ms", "ms", Lower);
      ("transport.sim_arm.ops_per_s", "ops/s", Higher);
      ("transport.tcp_ms_per_op", "ms", Lower);
      ("trace_overhead_pct", "%", Lower);
    ]

let table =
  let add kind = List.map (fun (n, u, b) -> (n, { unit_ = u; better = b; kind })) in
  add End_to_end end_to_end @ add Per_layer per_layer

let find name =
  match List.assoc_opt name table with
  | Some i -> i
  | None -> invalid_arg ("Catalog.find: unknown metric " ^ name)

let better_name = function Higher -> "higher" | Lower -> "lower"
