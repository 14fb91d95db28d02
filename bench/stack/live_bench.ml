(* The live workload: a generated durable FDAS scenario played by
   [Rdt_live.Cluster.run] against real node processes (the built CLI,
   exactly what [rdtgc cluster-run --backend exec] spawns) over loopback
   TCP, and the same scenario played in-process by [Sim_cluster.run] as
   the reference.

   The coordinator drives one op at a time (a closed loop with a single
   op outstanding) and logs one line before each op.  Timestamping those
   lines through [?log] is the only instrumentation: an op's latency is
   the gap from its line to the next one, the registration phase runs
   from the call to the first op line and teardown from the shutdown line
   to the return.  The timestamps cost the same whether or not a span
   file is asked for, so one TCP run gives both the end-to-end and the
   per-layer numbers, and tracing adds no overhead. *)

module Scenario = Rdt_verify.Scenario
module Harness = Rdt_verify.Harness
module Cluster = Rdt_live.Cluster
module Sim_cluster = Rdt_live.Sim_cluster
module Coordinator = Rdt_live.Coordinator
module Wire = Rdt_transport.Wire
module Log_store = Rdt_store.Log_store
module Protocol = Rdt_protocols.Protocol
module Session = Rdt_recovery.Session
module Prng = Rdt_sim.Prng

let n = 4

(* (regular ops, one single-process crash after every this many).  At
   full scale the scenario fills [seconds]: on a 2-core host the TCP run
   plays ≈1 300 ops/s and then pays a flat 5 s teardown, and the sim
   reference arm plays ≈8 000 ops/s, so 800 ops per second of budget
   (16 000 at the default 20 s) take about that long. *)
let size scale ~seconds =
  match scale with
  | Catalog.Full -> (max 500 (int_of_float (800.0 *. seconds)), 500)
  | Catalog.Smoke -> (300, 100)

(* About 40% sends, 35% deliveries of a random in-flight message (so
   channels reorder), 3% losses and 22% basic checkpoints.  A crash
   flushes every message in flight, so the generator forgets them too and
   the scenario is already in normal form. *)
let scenario ~seed ~ops ~crash_every =
  let rng = Prng.create ~seed in
  let inflight = Array.make (ops + 1) 0 and in_flight = ref 0 in
  let next_id = ref 0 and acc = ref [] in
  let push op = acc := op :: !acc in
  let take () =
    let i = Prng.int rng !in_flight in
    let id = inflight.(i) in
    decr in_flight;
    inflight.(i) <- inflight.(!in_flight);
    id
  in
  for k = 0 to ops - 1 do
    if k > 0 && k mod crash_every = 0 then begin
      push (Scenario.Crash [ Prng.int rng n ]);
      in_flight := 0
    end;
    let u = Prng.float rng 1.0 in
    if u < 0.40 || (u < 0.78 && !in_flight = 0) then begin
      let src = Prng.int rng n in
      let dst = (src + 1 + Prng.int rng (n - 1)) mod n in
      let id = !next_id in
      incr next_id;
      inflight.(!in_flight) <- id;
      incr in_flight;
      push (Scenario.Send { id; src; dst })
    end
    else if u < 0.75 then push (Scenario.Deliver (take ()))
    else if u < 0.78 then push (Scenario.Drop (take ()))
    else push (Scenario.Checkpoint (Prng.int rng n))
  done;
  {
    Scenario.seed;
    n;
    protocol = Protocol.fdas;
    knowledge = `Global;
    durable = true;
    store_fault = None;
    ops = List.rev !acc;
  }

let op_kind = function
  | Scenario.Checkpoint _ -> "checkpoint"
  | Scenario.Send _ -> "send"
  | Scenario.Deliver _ -> "deliver"
  | Scenario.Drop _ -> "drop"
  | Scenario.Crash _ -> "crash"

(* --- one cluster run ------------------------------------------------------------ *)

type timeline = {
  op_at : int array;
  mutable ops_seen : int;
  mutable shutdown_at : int;
}

type arm_run = {
  result : (Coordinator.run_record, string) result;
  start_ns : int;
  end_ns : int;
  tl : timeline;
}

let timed_run ~ops f =
  let tl = { op_at = Array.make ops 0; ops_seen = 0; shutdown_at = 0 } in
  let log line =
    let t = Spans.now_ns () in
    if String.starts_with ~prefix:"op " line then begin
      if tl.ops_seen < ops then tl.op_at.(tl.ops_seen) <- t;
      tl.ops_seen <- tl.ops_seen + 1
    end
    else if String.equal line "shutting down" then tl.shutdown_at <- t
  in
  let start_ns = Spans.now_ns () in
  let result = f ~log in
  let end_ns = Spans.now_ns () in
  { result; start_ns; end_ns; tl }

let ms ns = float ns *. 1e-6

(* Ops that completed: all of them on [Ok], all but the one in progress
   when the coordinator gave up otherwise. *)
let completed a =
  match a.result with Ok _ -> a.tl.ops_seen | Error _ -> max 0 (a.tl.ops_seen - 1)

(* ns each completed op took, in op order *)
let latencies a =
  Array.init (completed a) (fun i ->
      let next =
        if i + 1 < a.tl.ops_seen then a.tl.op_at.(i + 1) else a.tl.shutdown_at
      in
      next - a.tl.op_at.(i))

(* latencies (ms) of the completed ops of one kind *)
let latencies_of_kind a (sc : Scenario.t) kind =
  let lat = latencies a in
  let acc = ref [] in
  List.iteri
    (fun i op ->
      if i < Array.length lat && String.equal (op_kind op) kind then
        acc := ms lat.(i) :: !acc)
    sc.Scenario.ops;
  Array.of_list (List.rev !acc)

let ops_phase_s a = float (a.tl.shutdown_at - a.tl.op_at.(0)) *. 1e-9
let register_s a = float (a.tl.op_at.(0) - a.start_ns) *. 1e-9

(* --- what the observations say ------------------------------------------------- *)

type quality = {
  retained_mean : float;  (** total retained after each op, averaged over ops *)
  retained_peak : int;
  forced : int;  (** deliveries that raised the receiver's own DV entry *)
  sends : int;
}

let quality (sc : Scenario.t) (obs : Coordinator.observation list) =
  let ops = Array.of_list sc.Scenario.ops in
  let retained = Array.make sc.Scenario.n 1 and own = Array.make sc.Scenario.n 1 in
  let sum = ref 0 and peak = ref 0 and forced = ref 0 in
  List.iter
    (fun (o : Coordinator.observation) ->
      List.iter
        (fun (pid, (st : Wire.state)) ->
          (match ops.(o.Coordinator.obs_op) with
          | Scenario.Deliver _ when st.Wire.st_dv.(pid) > own.(pid) -> incr forced
          | _ -> ());
          own.(pid) <- st.Wire.st_dv.(pid);
          retained.(pid) <- Array.length st.Wire.st_retained)
        o.Coordinator.obs_states;
      let total = Array.fold_left ( + ) 0 retained in
      sum := !sum + total;
      peak := max !peak total)
    obs;
  {
    retained_mean = float !sum /. float (max 1 (List.length obs));
    retained_peak = !peak;
    forced = !forced;
    sends =
      Array.fold_left
        (fun acc op -> match op with Scenario.Send _ -> acc + 1 | _ -> acc)
        0 ops;
  }

(* --- correctness ---------------------------------------------------------------- *)

(* Ops whose observation differs between the two records (an op missing
   from one side differs). *)
let mismatched_ops (a : Coordinator.run_record) (b : Coordinator.run_record) =
  let index (r : Coordinator.run_record) =
    let h = Hashtbl.create 1024 in
    List.iter
      (fun (o : Coordinator.observation) ->
        Hashtbl.replace h o.Coordinator.obs_op o.Coordinator.obs_states)
      r.Coordinator.rr_observations;
    h
  in
  let ha = index a and hb = index b in
  let ops = Hashtbl.create 1024 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace ops k ()) ha;
  Hashtbl.iter (fun k _ -> Hashtbl.replace ops k ()) hb;
  Hashtbl.fold
    (fun op () acc -> if Hashtbl.find_opt ha op = Hashtbl.find_opt hb op then acc else acc + 1)
    ops 0

let records_equal (a : Coordinator.run_record) (b : Coordinator.run_record) =
  Scenario.equal a.Coordinator.rr_scenario b.Coordinator.rr_scenario
  && a.Coordinator.rr_observations = b.Coordinator.rr_observations
  && String.equal a.Coordinator.rr_trace b.Coordinator.rr_trace
  && a.Coordinator.rr_reports = b.Coordinator.rr_reports

(* Reopen every node's store (the recovery scan a respawn pays) and hold
   it against the retained set of that node's last observation. *)
let reopen_stores ~root (r : Coordinator.run_record) =
  let last = Array.make n [||] in
  List.iter
    (fun (o : Coordinator.observation) ->
      List.iter
        (fun (pid, (st : Wire.state)) -> last.(pid) <- st.Wire.st_retained)
        o.Coordinator.obs_states)
    r.Coordinator.rr_observations;
  let times = Array.make n 0.0 and bad = ref [] in
  for pid = 0 to n - 1 do
    let dir = Filename.concat (Cluster.node_dir root pid) "store" in
    let t0 = Spans.now_ns () in
    let ls = Log_store.create ~config:Harness.log_config ~pid ~dir () in
    times.(pid) <- ms (Spans.now_ns () - t0);
    if Log_store.live_indices ls <> Array.to_list last.(pid) then
      bad := Printf.sprintf "p%d" pid :: !bad;
    Log_store.close ls
  done;
  ( times,
    Report.check "stores=last-observation" (!bad = [])
      ("differ: " ^ String.concat " " (List.rev !bad)) )

(* --- spans ------------------------------------------------------------------------ *)

let record_spans spans ~run_id ~(sc : Scenario.t) a =
  Spans.begin_run spans run_id;
  let root = Spans.add spans ~name:"live.run" ~start:a.start_ns ~stop:a.end_ns ~parent:(-1) in
  let tl = a.tl in
  if tl.ops_seen > 0 then
    ignore
      (Spans.add spans ~name:"live.register" ~start:a.start_ns ~stop:tl.op_at.(0)
         ~parent:root);
  let lat = latencies a in
  List.iteri
    (fun i op ->
      if i < Array.length lat then
        ignore
          (Spans.add spans ~name:("live.op." ^ op_kind op) ~start:tl.op_at.(i)
             ~stop:(tl.op_at.(i) + lat.(i)) ~parent:root))
    sc.Scenario.ops;
  if tl.shutdown_at > 0 then
    ignore (Spans.add spans ~name:"live.teardown" ~start:tl.shutdown_at ~stop:a.end_ns ~parent:root)

(* --- the workload ----------------------------------------------------------------- *)

let setup_runs = 5

let run ~scale ~seed ~seconds ~tmp ~cli ~save_scenario ~spans_csv =
  let ops, crash_every = size scale ~seconds in
  let gen_times = Array.make setup_runs 0.0 in
  let scenarios =
    List.init setup_runs (fun i ->
        let t0 = Spans.now_ns () in
        let sc = Scenario.normalize (scenario ~seed ~ops ~crash_every) in
        gen_times.(i) <- float (Spans.now_ns () - t0) *. 1e-9;
        sc)
  in
  let sc = List.hd scenarios in
  Option.iter (Scenario.save sc) save_scenario;
  let total_ops = Scenario.op_count sc in
  let generated = Scenario.op_count (scenario ~seed ~ops ~crash_every) in
  let root = Filename.concat tmp "tcp" in
  let tcp =
    timed_run ~ops:total_ops (fun ~log ->
        Cluster.run ~scenario:sc ~root ~backend:(Cluster.Exec cli) ~log ())
  in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let sim =
    timed_run ~ops:total_ops (fun ~log ->
        Sim_cluster.run ~scenario:sc ~root:(Filename.concat tmp "sim") ~log ())
  in
  Option.iter
    (fun path ->
      let spans = Spans.create () in
      record_spans spans ~run_id:"live-tcp" ~sc tcp;
      Spans.write_csv spans path)
    spans_csv;
  let ok_record a = match a.result with Ok r -> Some r | Error _ -> None in
  let error_of a = match a.result with Ok _ -> "" | Error e -> e in
  let differing =
    match (ok_record tcp, ok_record sim) with Some r, Some s -> mismatched_ops r s | _ -> 0
  in
  let reopened = Option.map (reopen_stores ~root) (ok_record tcp) in
  let checks =
    [
      Report.check "scenario-generation-deterministic"
        (List.for_all (Scenario.equal sc) scenarios)
        "two generations from one seed differ";
      Report.check "scenario-normal-form" (generated = total_ops)
        (Printf.sprintf "normalize kept %d of %d ops" total_ops generated);
      Report.check "sim-arm-ok" (Option.is_some (ok_record sim)) (error_of sim);
      Report.check "tcp-coordinator-ok" (Option.is_some (ok_record tcp)) (error_of tcp);
      Report.check "tcp-record=sim-arm"
        (match (ok_record tcp, ok_record sim) with
        | Some r, Some s -> records_equal r s
        | _ -> false)
        (Printf.sprintf "%d ops differ" differing);
    ]
    @ Option.to_list (Option.map snd reopened)
  in
  let metrics =
    match (ok_record tcp, reopened) with
    | Some record, Some (reopen_ms, _) ->
      let q = quality sc record.Coordinator.rr_observations in
      let lat = Array.map ms (latencies tcp) in
      let phase = ops_phase_s tcp and sim_phase = ops_phase_s sim in
      [
        ("setup_s", Report.median gen_times +. register_s tcp);
        ("run_s", float (tcp.end_ns - tcp.start_ns) *. 1e-9);
        ("ops_per_s", float total_ops /. phase);
        ("peak_heap_mb", Sim_bench.mb_of_words (float top_heap_words));
        ("retained_mean", q.retained_mean);
        ("retained_peak", float q.retained_peak);
        ("forced_per_msg", float q.forced /. float q.sends);
        ("op_p50_ms", Report.median lat);
        ("op_p99_ms", Report.percentile lat 0.99);
        ("recovery_p50_ms", Report.median (latencies_of_kind tcp sc "crash"));
        ("teardown_s", float (tcp.end_ns - tcp.tl.shutdown_at) *. 1e-9);
      ]
      @
      if spans_csv = None then []
      else
        List.concat_map
          (fun k ->
            let l = latencies_of_kind tcp sc k in
            let p = "live.op." ^ k in
            [
              (p ^ ".count", float (Array.length l));
              (p ^ ".p50_ms", Report.median l);
              (p ^ ".p99_ms", Report.percentile l 0.99);
            ])
          Catalog.ops
        @ [
            ("live.register_s", register_s tcp);
            ("live.store.reopen_ms", Report.median reopen_ms);
            ("transport.sim_arm.ops_per_s", float total_ops /. sim_phase);
            ("transport.tcp_ms_per_op", (phase -. sim_phase) *. 1e3 /. float total_ops);
            ("recovery.sessions", float (List.length record.Coordinator.rr_reports));
            ( "recovery.rolled_back",
              float
                (List.fold_left
                   (fun acc (r : Session.report) -> acc + r.Session.checkpoints_rolled_back)
                   0 record.Coordinator.rr_reports) );
            ("trace_overhead_pct", 0.0);
          ]
    | _ -> []
  in
  {
    Report.workload = "live-tcp";
    seed;
    scale = Catalog.scale_name scale;
    traced = spans_csv <> None;
    attempted = total_ops;
    failed = total_ops - completed tcp + differing;
    checks;
    metrics;
  }
