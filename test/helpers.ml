(* Shared utilities for the test suite: deterministic random simulations,
   ground-truth audits against the trace-based oracle, and alcotest
   shorthands. *)

module Ccp = Rdt_ccp.Ccp
module Trace = Rdt_ccp.Trace
module Oracles = Rdt_verify.Oracles
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let ints_c = Alcotest.(list int)

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

(* Fails the test on the first violation an {!Oracles} check reports. *)
let fail_on_first = function
  | [] -> ()
  | v :: _ -> Alcotest.failf "%a" Oracles.pp_violation v

(* One check of the battery on a Runner execution. *)
let audit check t =
  fail_on_first (check ~stack:(Runner.stack t) ~ccp:(Runner.ccp t) ~op:(-1))

let audit_safety t = audit Oracles.safety t
let audit_optimality ~exact t = audit (Oracles.optimality ~exact) t
let audit_invariant t = audit Oracles.invariant t
let audit_bound t = audit Oracles.bound t
let audit_rdt t = fail_on_first (Oracles.rdt ~ccp:(Runner.ccp t) ~op:(-1))
