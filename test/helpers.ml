(* Shared utilities for the test suite: deterministic random simulations,
   ground-truth audits against the trace-based oracle, and alcotest
   shorthands. *)

module Ccp = Rdt_ccp.Ccp
module Trace = Rdt_ccp.Trace
module Oracles = Rdt_verify.Oracles
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload

(* What [f] prints on stdout. *)
let stdout_of f =
  let path = Filename.temp_file "rdtgc-test" ".out" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let out = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  out

(* A whole wire frame decoded from the start of [buf], with the bytes it
   took. *)
let wire_decode buf =
  let module Wire = Rdt_transport.Wire in
  let len = Bytes.length buf in
  match Wire.decode_header buf ~pos:0 ~len with
  | Error e -> Error e
  | Ok h -> (
    let pos = Wire.header_bytes in
    match Wire.decode_body h buf ~pos ~len:(len - pos) with
    | Error e -> Error e
    | Ok frame -> Ok (frame, pos + h.h_len))

let wire_error e = Format.asprintf "%a" Rdt_transport.Wire.pp_error e

(* [Rdt_verify.Scenario.load] of a file holding [text]. *)
let scenario_of_string text =
  let path = Filename.temp_file "rdtgc-test" ".scn" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Rdt_verify.Scenario.load path)

(* A checkpointing protocol by its CLI id. *)
let protocol id = Option.get (Rdt_protocols.Protocol.by_id id)

(* A fresh path under the temp directory, for a store to create. *)
let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rdt_test_%d_%d" (Unix.getpid ()) !counter)

(* Stored checkpoints, field by field. *)
let entry_eq (a : Rdt_storage.Stable_store.entry)
    (b : Rdt_storage.Stable_store.entry) =
  a.index = b.index && a.dv = b.dv && a.taken_at = b.taken_at
  && a.size_bytes = b.size_bytes && a.payload = b.payload

let entries_eq a b = List.length a = List.length b && List.for_all2 entry_eq a b

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
  (* DV archives from the start, so {!tracking_inputs} after the run sees
     the vectors of collected checkpoints too *)
  for pid = 0 to (Runner.config t).Sim_config.n - 1 do
    ignore (Rdt_protocols.Middleware.archive (Runner.middleware t pid))
  done;
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

(* The volatile checkpoint v_pid, and every stable checkpoint, process by
   process. *)
let volatile ccp pid = { Ccp.pid; index = Ccp.volatile_index ccp pid }
let stable_checkpoints ccp = List.filter (Ccp.is_stable ccp) (Ccp.checkpoints ccp)

(* Copies of a trace's events, oldest first: all of them in sequence
   order, or one process's. *)
let events t =
  let acc = ref [] in
  Trace.iter t (fun v -> acc := event_of_view v :: !acc);
  List.rev !acc

let events_of t ~pid = List.filter (fun (e : event) -> e.pid = pid) (events t)

(* The index of [pid]'s last recorded checkpoint; -1 if none. *)
let last_checkpoint t ~pid =
  List.fold_left
    (fun acc (e : event) -> if e.tag = Trace.Checkpoint then e.payload else acc)
    (-1) (events_of t ~pid)

(* The largest checkpoint index or message id a trace of [n] processes
   records: the packed code is the payload above the bits of a peer id
   (at most n - 1) above a 2-bit tag. *)
let max_payload ~n =
  let rec width m = if m = 0 then 0 else 1 + width (m lsr 1) in
  max_int lsr (width (n - 1) + 2)

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

(* [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- the CLI executable ------------------------------------------------ *)

(* The CLI is a test dependency: `dune runtest` runs in the test sandbox,
   next to ../bin; `dune exec test/test_main.exe` runs from the root. *)
let cli_exe =
  let cand = Filename.concat ".." "bin/rdtgc_cli.exe" in
  if Sys.file_exists cand then cand else "_build/default/bin/rdtgc_cli.exe"

(* Runs the CLI with [args]; returns its exit code and its stdout and
   stderr, interleaved. *)
let run_cli args =
  if not (Sys.file_exists cli_exe) then Alcotest.skip ();
  let out = Filename.temp_file "rdtgc-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let fd = Unix.openfile out [ O_WRONLY; O_TRUNC ] 0o600 in
      let pid =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.create_process cli_exe
              (Array.of_list (cli_exe :: args))
              Unix.stdin fd fd)
      in
      let code =
        match snd (Unix.waitpid [] pid) with
        | WEXITED c -> c
        | WSIGNALED s | WSTOPPED s -> -s
      in
      (code, In_channel.with_open_bin out In_channel.input_all))

(* Wang tracking's inputs for a system of middlewares, indexed by pid:
   each process's DV archive and live DV. *)
let tracking_inputs mws =
  ( Array.map Rdt_protocols.Middleware.archive mws,
    Array.map
      (fun mw ->
        Rdt_causality.Dependency_vector.to_array
          (Rdt_protocols.Middleware.dv mw))
      mws )

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
