module Prng = Rdt_sim.Prng
module Protocol = Rdt_protocols.Protocol
module Fault = Rdt_store.Fault
module Trace = Rdt_ccp.Trace
module Workload = Rdt_workload.Workload
module Sim_config = Rdt_core.Sim_config
module Runner = Rdt_core.Runner

type op =
  | Checkpoint of int
  | Send of { id : int; src : int; dst : int }
  | Deliver of int
  | Drop of int
  | Crash of int list

type store_fault = { fault_pid : int; fault_op : int; fault_kind : Fault.kind }

type t = {
  seed : int;
  n : int;
  protocol : Protocol.t;
  knowledge : Rdt_recovery.Session.knowledge;
  durable : bool;
  store_fault : store_fault option;
  ops : op list;
}

let op_count t = List.length t.ops

let op_equal a b =
  match (a, b) with
  | Checkpoint a, Checkpoint b -> a = b
  | Send a, Send b -> a.id = b.id && a.src = b.src && a.dst = b.dst
  | Deliver a, Deliver b | Drop a, Drop b -> a = b
  | Crash a, Crash b -> List.equal Int.equal a b
  | (Checkpoint _ | Send _ | Deliver _ | Drop _ | Crash _), _ -> false

let knowledge_equal a b =
  match (a, b) with
  | `Global, `Global | `Causal, `Causal -> true
  | (`Global | `Causal), _ -> false

let store_fault_equal a b =
  a.fault_pid = b.fault_pid && a.fault_op = b.fault_op
  && (match (a.fault_kind, b.fault_kind) with
     | Fault.Short_write, Fault.Short_write
     | Crash_before_sync, Crash_before_sync
     | Bit_flip, Bit_flip -> true
     | (Fault.Short_write | Crash_before_sync | Bit_flip), _ -> false)

let equal a b =
  a.seed = b.seed && a.n = b.n
  && a.protocol.Protocol.id = b.protocol.Protocol.id
  && knowledge_equal a.knowledge b.knowledge
  && a.durable = b.durable
  && Option.equal store_fault_equal a.store_fault b.store_fault
  && List.equal op_equal a.ops b.ops

(* --- static normalization --------------------------------------------- *)

(* Make an op list well formed without running it: delivery/drop only of
   messages that are in flight at that point, crashes flush the in-flight
   set, out-of-range pids disappear.  Shrinking removes ops blindly and
   relies on this to restore well-formedness. *)
let normalize sc =
  (* [seen]: every message id ever sent (ids are never reused); [inflight]:
     sent but not yet delivered/dropped/flushed by a crash.  Two tables so a
     crash can clear the in-flight set without Hashtbl iteration, whose
     order rdt_lint (det/hashtbl-order) bans in this library. *)
  let seen = Hashtbl.create 64 in
  let inflight = Hashtbl.create 64 in
  let valid p = p >= 0 && p < sc.n in
  let ops =
    List.filter_map
      (fun op ->
        match op with
        | Checkpoint p -> if valid p then Some op else None
        | Send { id; src; dst } ->
          if valid src && valid dst && src <> dst && not (Hashtbl.mem seen id)
          then begin
            Hashtbl.replace seen id ();
            Hashtbl.replace inflight id ();
            Some op
          end
          else None
        | Deliver id | Drop id ->
          if Hashtbl.mem inflight id then begin
            Hashtbl.remove inflight id;
            Some op
          end
          else None
        | Crash faulty ->
          let faulty = List.sort_uniq Int.compare (List.filter valid faulty) in
          if List.is_empty faulty then None
          else begin
            (* a recovery session discards every in-flight message *)
            Hashtbl.reset inflight;
            Some (Crash faulty)
          end)
      sc.ops
  in
  let store_fault = if sc.durable then sc.store_fault else None in
  { sc with ops; store_fault }

let remove_process sc pid =
  if sc.n <= 2 || pid < 0 || pid >= sc.n then None
  else begin
    let remap p = if p > pid then p - 1 else p in
    let ops =
      List.filter_map
        (fun op ->
          match op with
          | Checkpoint p -> if p = pid then None else Some (Checkpoint (remap p))
          | Send { id; src; dst } ->
            if src = pid || dst = pid then None
            else Some (Send { id; src = remap src; dst = remap dst })
          | Deliver _ | Drop _ -> Some op
          | Crash faulty ->
            let faulty =
              List.filter_map (fun p -> if p = pid then None else Some (remap p))
                faulty
            in
            if List.is_empty faulty then None else Some (Crash faulty))
        sc.ops
    in
    let store_fault =
      match sc.store_fault with
      | Some f when f.fault_pid = pid -> None
      | Some f -> Some { f with fault_pid = remap f.fault_pid }
      | None -> None
    in
    Some (normalize { sc with n = sc.n - 1; ops; store_fault })
  end

(* --- generation ------------------------------------------------------- *)

let pick_protocol rng =
  let ps = Array.of_list Protocol.rdt_protocols in
  Prng.pick rng ps

let gen_store_fault rng ~n ~durable =
  if durable && Prng.bool rng then
    Some
      {
        fault_pid = Prng.int rng n;
        fault_op = 1 + Prng.int rng 30;
        fault_kind =
          (match Prng.int rng 3 with
          | 0 -> Fault.Short_write
          | 1 -> Fault.Crash_before_sync
          | _ -> Fault.Bit_flip);
      }
  else None

(* Direct mode: the op list itself is random.  Message delay and
   reordering are modeled by how long a send id lingers in [pending] and
   by the [fifo_bias] coin (probability of delivering the oldest pending
   message rather than a uniformly random one). *)
let gen_direct rng ~seed ~max_procs =
  let n = 2 + Prng.int rng (max 1 (max_procs - 1)) in
  let protocol = pick_protocol rng in
  let knowledge = if Prng.bool rng then `Global else `Causal in
  let durable = Prng.int rng 4 = 0 in
  let pattern = Prng.int rng 3 in
  let fifo_bias = [| 0.0; 0.5; 0.9 |].(Prng.int rng 3) in
  let crashes_allowed = Prng.bool rng in
  let len = 8 + Prng.int rng 120 in
  let dst_of src =
    match pattern with
    | 0 -> (src + 1 + Prng.int rng (n - 1)) mod n (* uniform *)
    | 1 -> (src + 1) mod n (* ring *)
    | _ -> if src = 0 then 1 + Prng.int rng (n - 1) else 0 (* hub *)
  in
  let ops = ref [] in
  let pending = ref [] (* in-flight send ids, oldest first *) in
  let next_id = ref 0 in
  let take_pending id =
    pending := List.filter (fun i -> i <> id) !pending;
    id
  in
  for _ = 1 to len do
    let roll = Prng.int rng 100 in
    if roll < 34 then begin
      let src = Prng.int rng n in
      let id = !next_id in
      incr next_id;
      pending := !pending @ [ id ];
      ops := Send { id; src; dst = dst_of src } :: !ops
    end
    else if roll < 70 && not (List.is_empty !pending) then begin
      let id =
        if Prng.bernoulli rng ~p:fifo_bias then List.hd !pending
        else List.nth !pending (Prng.int rng (List.length !pending))
      in
      ops := Deliver (take_pending id) :: !ops
    end
    else if roll < 88 then ops := Checkpoint (Prng.int rng n) :: !ops
    else if roll < 94 && not (List.is_empty !pending) then begin
      let id = List.nth !pending (Prng.int rng (List.length !pending)) in
      ops := Drop (take_pending id) :: !ops
    end
    else if crashes_allowed && roll >= 94 then begin
      let f1 = Prng.int rng n in
      let faulty =
        if n > 2 && Prng.int rng 3 = 0 then
          List.sort_uniq compare [ f1; (f1 + 1 + Prng.int rng (n - 1)) mod n ]
        else [ f1 ]
      in
      pending := [];
      ops := Crash faulty :: !ops
    end
  done;
  {
    seed;
    n;
    protocol;
    knowledge;
    durable;
    store_fault = gen_store_fault rng ~n ~durable;
    ops = List.rev !ops;
  }

(* Simulated mode: run the discrete-event engine on a random
   configuration (real workload patterns, network delay/loss/reordering)
   and transcribe the recorded trace into an op list.  The transcript is a
   pattern donor, not an exact replay — forced checkpoints are replayed as
   basic ones, on top of which the protocol may force more; both are legal
   executions. *)
let max_transcribed_ops = 250

let gen_simulated rng ~seed ~max_procs =
  let n = 2 + Prng.int rng (max 1 (max_procs - 1)) in
  let protocol = pick_protocol rng in
  let knowledge = if Prng.bool rng then `Global else `Causal in
  let durable = Prng.int rng 4 = 0 in
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
  let cfg =
    {
      Sim_config.default with
      n;
      seed = Prng.int rng 1_000_000;
      duration = 8.0 +. Prng.float rng 12.0;
      protocol;
      gc = Sim_config.No_gc;
      faults = [];
      workload =
        {
          Workload.default with
          pattern = Prng.pick rng patterns;
          send_mean_interval = [| 0.5; 1.0; 2.0 |].(Prng.int rng 3);
          basic_ckpt_mean_interval = [| 2.0; 4.0; 8.0 |].(Prng.int rng 3);
        };
      net =
        {
          Rdt_sim.Network.default with
          loss_probability = (if Prng.int rng 3 = 0 then 0.1 else 0.0);
          fifo = Prng.bool rng;
        };
      sample_interval = 1_000_000.0;
    }
  in
  let r = Runner.create cfg in
  Runner.run r;
  let ops = ref [] in
  let next_id = ref 0 in
  let idmap = Hashtbl.create 64 in
  Trace.iter (Runner.trace r) (fun e ->
      let pid = Trace.View.pid e and payload = Trace.View.payload e in
      match Trace.View.tag e with
      | Trace.Checkpoint -> if payload > 0 then ops := Checkpoint pid :: !ops
      | Trace.Send ->
        let id = !next_id in
        incr next_id;
        Hashtbl.replace idmap payload id;
        ops := Send { id; src = pid; dst = Trace.View.peer e } :: !ops
      | Trace.Receive -> (
        match Hashtbl.find_opt idmap payload with
        | Some id -> ops := Deliver id :: !ops
        | None -> ()));
  let ops = List.rev !ops in
  let ops = List.filteri (fun i _ -> i < max_transcribed_ops) ops in
  let ops =
    (* sometimes finish with a crash so recovery paths get simulated
       coverage too *)
    if Prng.int rng 3 = 0 then ops @ [ Crash [ Prng.int rng n ] ] else ops
  in
  {
    seed;
    n;
    protocol;
    knowledge;
    durable;
    store_fault = gen_store_fault rng ~n ~durable;
    ops;
  }

let generate ~seed ~max_procs () =
  let max_procs = max 2 max_procs in
  let rng = Prng.create ~seed in
  let sc =
    if Prng.int rng 3 = 0 then gen_simulated rng ~seed ~max_procs
    else gen_direct rng ~seed ~max_procs
  in
  normalize sc

(* --- corpus serialization --------------------------------------------- *)

let magic = "rdtgc-scenario 1"

let kind_of_string = function
  | "short-write" -> Some Fault.Short_write
  | "crash-before-sync" -> Some Fault.Crash_before_sync
  | "bit-flip" -> Some Fault.Bit_flip
  | _ -> None

let to_string sc =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%s\n" magic;
  pf "seed 0x%x\n" sc.seed;
  pf "n %d\n" sc.n;
  pf "protocol %s\n" sc.protocol.Protocol.id;
  pf "knowledge %s\n"
    (match sc.knowledge with `Global -> "global" | `Causal -> "causal");
  pf "durable %b\n" sc.durable;
  (match sc.store_fault with
  | Some f ->
    pf "store-fault %d %d %s\n" f.fault_pid f.fault_op
      (Fault.kind_name f.fault_kind)
  | None -> ());
  pf "ops\n";
  List.iter
    (fun op ->
      match op with
      | Checkpoint p -> pf "C %d\n" p
      | Send { id; src; dst } -> pf "S %d %d %d\n" id src dst
      | Deliver id -> pf "D %d\n" id
      | Drop id -> pf "L %d\n" id
      | Crash faulty ->
        pf "X%s\n" (String.concat "" (List.map (Printf.sprintf " %d") faulty)))
    sc.ops;
  pf "end\n";
  Buffer.contents b

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | m :: rest when m = magic -> begin
    let seed = ref 0
    and n = ref 0
    and protocol = ref None
    and knowledge = ref `Global
    and durable = ref false
    and store_fault = ref None
    and ops = ref []
    and in_ops = ref false
    and ended = ref false
    and bad = ref None in
    let fail fmt = Printf.ksprintf (fun m -> bad := Some m) fmt in
    List.iter
      (fun line ->
        if Option.is_some !bad || !ended then ()
        else if not !in_ops then begin
          match String.split_on_char ' ' line with
          | [ "seed"; v ] -> (
            match int_of_string_opt v with
            | Some v -> seed := v
            | None -> fail "bad seed %S" v)
          | [ "n"; v ] -> (
            match int_of_string_opt v with
            | Some v when v > Rdt_store.Record.max_dv_len ->
              fail "n %d exceeds %d, the longest DV a checkpoint record holds"
                v Rdt_store.Record.max_dv_len
            | Some v when v >= 2 -> n := v
            | _ -> fail "bad n %S" v)
          | [ "protocol"; id ] -> (
            match Protocol.by_id id with
            | Some p when p.Protocol.rdt -> protocol := Some p
            | Some _ -> fail "protocol %S does not guarantee RDT" id
            | None -> fail "unknown protocol %S" id)
          | [ "knowledge"; "global" ] -> knowledge := `Global
          | [ "knowledge"; "causal" ] -> knowledge := `Causal
          | [ "durable"; v ] -> (
            match bool_of_string_opt v with
            | Some v -> durable := v
            | None -> fail "bad durable %S" v)
          | [ "store-fault"; p; o; k ] -> (
            match (int_of_string_opt p, int_of_string_opt o, kind_of_string k)
            with
            | Some fault_pid, Some fault_op, Some fault_kind ->
              store_fault := Some { fault_pid; fault_op; fault_kind }
            | _ -> fail "bad store-fault line %S" line)
          | [ "ops" ] -> in_ops := true
          | _ -> fail "bad header line %S" line
        end
        else begin
          match String.split_on_char ' ' line with
          | [ "end" ] -> ended := true
          | [ "C"; p ] -> (
            match int_of_string_opt p with
            | Some p -> ops := Checkpoint p :: !ops
            | None -> fail "bad op %S" line)
          | [ "S"; id; src; dst ] -> (
            match
              ( int_of_string_opt id,
                int_of_string_opt src,
                int_of_string_opt dst )
            with
            | Some id, Some src, Some dst -> ops := Send { id; src; dst } :: !ops
            | _ -> fail "bad op %S" line)
          | [ "D"; id ] -> (
            match int_of_string_opt id with
            | Some id -> ops := Deliver id :: !ops
            | None -> fail "bad op %S" line)
          | [ "L"; id ] -> (
            match int_of_string_opt id with
            | Some id -> ops := Drop id :: !ops
            | None -> fail "bad op %S" line)
          | "X" :: faulty -> (
            match
              List.fold_left
                (fun acc v ->
                  match (acc, int_of_string_opt v) with
                  | Some l, Some p -> Some (p :: l)
                  | _ -> None)
                (Some []) faulty
            with
            | Some (_ :: _ as l) -> ops := Crash (List.rev l) :: !ops
            | _ -> fail "bad op %S" line)
          | _ -> fail "bad op %S" line
        end)
      rest;
    match (!bad, !protocol, !ended) with
    | Some m, _, _ -> Error m
    | _, None, _ -> err "missing protocol line"
    | _, _, false -> err "missing end line"
    | None, Some protocol, true ->
      if !n < 2 then err "missing or bad n line"
      else
        Ok
          (normalize
             {
               seed = !seed;
               n = !n;
               protocol;
               knowledge = !knowledge;
               durable = !durable;
               store_fault = !store_fault;
               ops = List.rev !ops;
             })
  end
  | _ -> err "not a %s file" magic

let save sc path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string sc))

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error (path ^ ": file shrank while reading")

(* --- printing --------------------------------------------------------- *)

let pp_op ppf = function
  | Checkpoint p -> Fmt.pf ppf "C%d" p
  | Send { id; src; dst } -> Fmt.pf ppf "S%d:%d>%d" id src dst
  | Deliver id -> Fmt.pf ppf "D%d" id
  | Drop id -> Fmt.pf ppf "L%d" id
  | Crash faulty -> Fmt.pf ppf "X[%a]" Fmt.(list ~sep:comma int) faulty

let pp ppf sc =
  Fmt.pf ppf "seed=0x%x n=%d proto=%s know=%s%s%s ops=%d" sc.seed sc.n
    sc.protocol.Protocol.id
    (match sc.knowledge with `Global -> "global" | `Causal -> "causal")
    (if sc.durable then " durable" else "")
    (match sc.store_fault with
    | Some f ->
      Printf.sprintf " fault=%s@p%d#%d"
        (Fault.kind_name f.fault_kind)
        f.fault_pid f.fault_op
    | None -> "")
    (op_count sc)
