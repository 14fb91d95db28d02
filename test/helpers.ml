(* Shared utilities for the test suite: deterministic random simulations,
   ground-truth audits against the trace-based oracle, and alcotest
   shorthands. *)

module Ccp = Rdt_ccp.Ccp
module Trace = Rdt_ccp.Trace
module Oracle = Rdt_gc.Oracle
module Global_gc = Rdt_gc.Global_gc
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Middleware = Rdt_protocols.Middleware
module Stable_store = Rdt_storage.Stable_store
module Dependency_vector = Rdt_causality.Dependency_vector
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let ints_c = Alcotest.(list int)

let sorted l = List.sort compare l

(* A compact deterministic simulation: derive every parameter from one
   integer so qcheck can drive whole executions from a single seed. *)
let sim_config_of_case ?(gc = Sim_config.Local) ?(faults = []) case =
  let patterns =
    [|
      Workload.Uniform;
      Workload.Ring;
      Workload.Client_server { servers = 1 };
      Workload.Pipeline;
      Workload.Broadcast;
      Workload.Bursty { burst = 3 };
    |]
  in
  let protocols = Rdt_protocols.Protocol.rdt_protocols in
  let n = 2 + (case mod 5) in
  let pattern = patterns.(case / 5 mod Array.length patterns) in
  let protocol = List.nth protocols (case / 25 mod List.length protocols) in
  let lossy = case mod 3 = 0 in
  let fifo = case mod 2 = 0 in
  (* vary communication/checkpoint rates across cases so the properties
     see sparse and dense patterns alike *)
  let send_mean = [| 0.4; 0.8; 1.6 |].(case / 7 mod 3) in
  let ckpt_mean = [| 2.0; 4.0; 8.0 |].(case / 11 mod 3) in
  {
    Sim_config.default with
    n;
    seed = case;
    duration = 40.0;
    protocol;
    gc;
    faults;
    workload =
      {
        Workload.default with
        pattern;
        send_mean_interval = send_mean;
        basic_ckpt_mean_interval = ckpt_mean;
      };
    net =
      {
        Rdt_sim.Network.default with
        loss_probability = (if lossy then 0.1 else 0.0);
        fifo;
      };
    sample_interval = 4.0;
  }

let run_case ?gc ?faults case =
  let t = Runner.create (sim_config_of_case ?gc ?faults case) in
  Runner.run t;
  t

(* A trace event copied out of the view the trace lends its readers. *)
type event = { seq : int; pid : int; tag : Trace.tag; peer : int; payload : int }

let event_of_view v =
  {
    seq = Trace.View.seq v;
    pid = Trace.View.pid v;
    tag = Trace.View.tag v;
    peer = Trace.View.peer v;
    payload = Trace.View.payload v;
  }

(* Copies of a trace's events, oldest first: all of them in sequence
   order, or one process's. *)
let events t =
  List.rev (Trace.fold t ~init:[] (fun acc v -> event_of_view v :: acc))

let events_of t ~pid =
  List.rev (Trace.fold_pid t ~pid ~init:[] (fun acc v -> event_of_view v :: acc))

(* Appends a copied event to [pid]'s log of [into]. *)
let record_event into ~pid (e : event) =
  match e.tag with
  | Trace.Checkpoint -> Trace.record_checkpoint into ~pid ~index:e.payload
  | Trace.Send -> Trace.record_send into ~pid ~msg_id:e.payload ~dst:e.peer
  | Trace.Receive -> Trace.record_receive into ~pid ~msg_id:e.payload ~src:e.peer

(* Random raw traces (arbitrary interleavings, not necessarily RDT) for
   exercising the CCP analyzers themselves. *)
let random_trace ~seed ~n ~ops =
  let rng = Rdt_sim.Prng.create ~seed in
  let t = Trace.init_with_initial_checkpoints ~n in
  let pending = ref [] in
  for _ = 1 to ops do
    match Rdt_sim.Prng.int rng 4 with
    | 0 -> Trace.checkpoint t (Rdt_sim.Prng.int rng n)
    | 1 | 2 ->
      let src = Rdt_sim.Prng.int rng n in
      let dst = (src + 1 + Rdt_sim.Prng.int rng (n - 1)) mod n in
      let id = Trace.send t ~src ~dst in
      pending := (id, src, dst) :: !pending
    | _ -> begin
      match !pending with
      | [] -> ()
      | _ ->
        let arr = Array.of_list !pending in
        let pick = Rdt_sim.Prng.int rng (Array.length arr) in
        let id, src, dst = arr.(pick) in
        pending := List.filter (fun (i, _, _) -> i <> id) !pending;
        Trace.receive t ~msg_id:id ~src ~dst
    end
  done;
  t

(* --- ground-truth audits --------------------------------------------- *)

(* Safety (Theorem 4): every checkpoint the collector eliminated is
   obsolete, i.e. every non-obsolete checkpoint is still retained. *)
let audit_safety t =
  let ccp = Runner.ccp t in
  let n = Ccp.n ccp in
  for pid = 0 to n - 1 do
    let retained =
      Stable_store.retained_indices (Middleware.store (Runner.middleware t pid))
    in
    let needed = Oracle.retained ccp ~pid in
    List.iter
      (fun index ->
        if not (List.mem index retained) then
          Alcotest.failf
            "safety: p%d eliminated non-obsolete checkpoint s^%d (retained: %s)"
            pid index
            (String.concat "," (List.map string_of_int retained)))
      needed
  done

(* Optimality (Theorem 5): nothing identifiable from causal knowledge is
   still stored.  [exact] additionally demands equality (valid when no
   recovery session injected global knowledge). *)
let audit_optimality ~exact t =
  let n = (Runner.config t).Sim_config.n in
  let snaps = Array.init n (fun pid -> Rdt_recovery.Session.snapshot_of (Runner.middleware t pid)) in
  for pid = 0 to n - 1 do
    let li = snaps.(pid).Global_gc.live_dv in
    let causal_retained = Global_gc.theorem1_retained snaps ~me:pid ~li in
    let retained =
      Stable_store.retained_indices (Middleware.store (Runner.middleware t pid))
    in
    List.iter
      (fun index ->
        if not (List.mem index causal_retained) then
          Alcotest.failf
            "optimality: p%d still stores s^%d, collectable from causal \
             knowledge (would retain only: %s)"
            pid index
            (String.concat "," (List.map string_of_int causal_retained)))
      retained;
    if exact && sorted retained <> sorted causal_retained then
      Alcotest.failf
        "optimality(exact): p%d retains {%s}, causal knowledge dictates {%s}"
        pid
        (String.concat "," (List.map string_of_int retained))
        (String.concat "," (List.map string_of_int causal_retained))
  done

(* Theorem 3: the invariant of Equation 4, checked against trace ground
   truth: whenever s^last_f -> c^(gamma+1)_i and s^last_f -/-> s^gamma_i,
   UC.(f) must reference s^gamma_i. *)
let audit_invariant t =
  let ccp = Runner.ccp t in
  let n = Ccp.n ccp in
  for pid = 0 to n - 1 do
    match Runner.collector t pid with
    | None -> ()
    | Some lgc ->
      for f = 0 to n - 1 do
        let last_f = Ccp.last_stable_ckpt ccp f in
        (* the largest gamma with s^last_f -/-> s^gamma_i, if its
           successor is preceded *)
        let last_i = Ccp.last_stable ccp pid in
        let rec find gamma =
          if gamma > last_i then None
          else begin
            let c : Ccp.ckpt = { pid; index = gamma } in
            let succ : Ccp.ckpt = { pid; index = gamma + 1 } in
            if
              (not (Ccp.precedes ccp last_f c))
              && Ccp.precedes ccp last_f succ
            then Some gamma
            else find (gamma + 1)
          end
        in
        match find 0 with
        | None -> ()
        | Some gamma ->
          let got = Rdt_lgc.retained_because_of lgc f in
          if got <> Some gamma then
            Alcotest.failf
              "invariant: p%d must hold UC[%d] = s^%d, found %s" pid f gamma
              (match got with None -> "Null" | Some g -> string_of_int g)
      done
  done

(* Space bound: at most n retained per process at quiescent points, n+1 at
   peak (Section 4.5). *)
let audit_bound t =
  let n = (Runner.config t).Sim_config.n in
  for pid = 0 to n - 1 do
    let store = Middleware.store (Runner.middleware t pid) in
    let count = Stable_store.count store in
    let peak = (Stable_store.stats store).Stable_store.peak_count in
    if count > n then
      Alcotest.failf "bound: p%d retains %d > n = %d checkpoints" pid count n;
    if peak > n + 1 then
      Alcotest.failf "bound: p%d peaked at %d > n+1 = %d" pid peak (n + 1)
  done

let audit_rdt t =
  let ccp = Runner.ccp t in
  match Rdt_ccp.Rdt_check.violations ~limit:1 ccp with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "execution is not RD-trackable: %s"
      (Format.asprintf "%a" Rdt_ccp.Rdt_check.pp_violation v)
