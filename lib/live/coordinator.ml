(* The cluster-side scenario driver: plays a {!Rdt_verify.Scenario.t}
   against live nodes as a serialized workload (one command in flight at
   a time), mirrors every node-reported trace event into a transcript,
   and — on a crash op — kills the faulty processes for real, respawns
   them, and runs the recovery session with {!Rdt_recovery.Session.run},
   the same code the in-memory session runs, over handles whose actions
   are commands to the nodes.

   The virtual clock mirrors {!Rdt_scenarios.Script.tick} (one unit per
   op, drops excepted) and travels inside each command, so checkpoint
   [taken_at] stamps — and hence durable store bytes — are identical to
   the simulator replay's. *)

module Transport = Rdt_transport.Transport
module Wire = Rdt_transport.Wire
module Trace = Rdt_ccp.Trace
module Global_gc = Rdt_gc.Global_gc
module Session = Rdt_recovery.Session
module Scenario = Rdt_verify.Scenario
module Harness = Rdt_verify.Harness

type ctl = { kill : int -> unit; respawn : int -> unit }

type observation = { obs_op : int; obs_states : (int * Wire.state) list }

type run_record = {
  rr_scenario : Scenario.t;
  rr_observations : observation list;
  rr_trace : string;  (** the mirrored transcript, {!Rdt_ccp.Trace} text *)
  rr_reports : Session.report list;
}

exception Failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

type t = {
  tr : Transport.t;
  ctl : ctl;
  sc : Scenario.t;
  timeout : float;
  log : string -> unit;
  inbox : Transport.event Queue.t;
  stash : Transport.event Queue.t;  (* Hellos a wait skipped over *)
  mirror : Trace.t;
  mutable clock : float;
  mutable seq : int;
  mutable epoch : int;
  ports : int array;
  down : bool array;
  sends_ever : int array;
  msgs : (int, int * int * int) Hashtbl.t;  (* scenario id -> src, msg_id, dst *)
  mutable observations : observation list;  (* newest first *)
  mutable reports : Session.report list;  (* newest first *)
}

let tick co =
  co.clock <- co.clock +. 1.0;
  co.clock

(* --- event plumbing ---------------------------------------------------- *)

(* Bounded retry with backoff: under a nemesis, frames the coordinator
   sends (and the replies they elicit) can be dropped or delayed, so
   every send-and-wait is retransmitted on a backoff schedule.  Receivers
   are idempotent against that (nodes dedup commands by seq), and
   the nemesis guarantees per-key punch-through below [max_attempts], so
   a partitioned node heals instead of wedging the run. *)
let poll_slice = 0.1
let max_attempts = 8

(* The initial RTO only needs to clear the nemesis's worst-case delay
   (~0.1s hold) plus processing on a loopback link; keeping it tight is
   what makes fault-heavy fuzz campaigns affordable in wall-clock time.
   A spurious retransmission is harmless — receivers dedup by seq. *)
let initial_rto = 0.25
let max_rto = 2.0

(* one event, or None once [deadline] passes / the backend drains — under
   virtual time the drained queue IS the timeout (nothing can arrive
   until the waiter acts), which is what makes retransmission reachable
   on the simulator backend too *)
let next_event_opt co ~deadline =
  let rec go () =
    match Queue.take_opt co.inbox with
    | Some ev -> Some ev
    | None -> begin
      let now = Transport.now co.tr in
      if now >= deadline then None
      else begin
        match
          Transport.poll co.tr ~timeout:(Float.min poll_slice (deadline -. now))
        with
        | `Progress | `Timeout -> go ()
        | `Idle -> None
      end
    end
  in
  go ()

(* Hellos from concurrent nodes arrive in any order; one the current
   wait does not accept is stashed and offered to later waits.  Only one
   command is ever in flight, so a Reply the wait does not accept is a
   stale duplicate (a retransmission's second answer) and is dropped. *)
let await_opt co ~what ~deadline ~accept =
  let rec from_stash acc =
    match Queue.take_opt co.stash with
    | None ->
      Queue.transfer acc co.stash;
      None
    | Some ev -> begin
      match accept ev with
      | Some v ->
        Queue.transfer co.stash acc;
        Queue.transfer acc co.stash;
        Some v
      | None ->
        Queue.add ev acc;
        from_stash acc
    end
  in
  match from_stash (Queue.create ()) with
  | Some v -> Some v
  | None ->
    let rec live () =
      match next_event_opt co ~deadline with
      | None -> None
      | Some ev -> begin
        match accept ev with
        | Some v -> Some v
        | None -> begin
          match ev with
          | Transport.Peer_down { peer } when peer >= 0 && co.down.(peer) ->
            live () (* the kill we just issued *)
          | Transport.Peer_down { peer } ->
            failf "coordinator: node %d died waiting for %s" peer what
          | Transport.Timer _ -> live ()
          | Transport.Garbled { peer; error } ->
            co.log
              (Format.asprintf "garbled frame from %s: %a"
                 (match peer with
                 | Some p -> string_of_int p
                 | None -> "unidentified peer")
                 Wire.pp_error error);
            live () (* the link resynchronized; retry covers the loss *)
          | Transport.Frame { frame = Wire.Hello _; _ } ->
            Queue.add ev co.stash;
            live ()
          | Transport.Frame _ -> live ()
        end
      end
    in
    live ()

let await co ~what ~accept =
  match
    await_opt co ~what ~deadline:(Transport.now co.tr +. co.timeout) ~accept
  with
  | Some v -> v
  | None -> failf "coordinator: timed out waiting for %s" what

let with_retry co ~what ~send ~accept =
  let deadline = Transport.now co.tr +. co.timeout in
  let rec go attempt rto =
    send ();
    let att_deadline = Float.min deadline (Transport.now co.tr +. rto) in
    match await_opt co ~what ~deadline:att_deadline ~accept with
    | Some v -> v
    | None ->
      if attempt + 1 >= max_attempts then
        failf "coordinator: no answer to %s after %d attempts" what
          (attempt + 1)
      else if Transport.now co.tr >= deadline then
        failf "coordinator: timed out waiting for %s" what
      else go (attempt + 1) (Float.min (rto *. 2.0) max_rto)
  in
  go 0 initial_rto

let record_events co ~pid evs =
  List.iter
    (fun ev ->
      (match (ev : Wire.tev) with
      | T_send _ -> co.sends_ever.(pid) <- co.sends_ever.(pid) + 1
      | T_ckpt _ | T_recv _ -> ());
      Wire.record_tev co.mirror ~pid ev)
    evs

let command co ~dst ~now ~what cmd =
  co.seq <- co.seq + 1;
  let seq = co.seq in
  (* one frame, retransmitted verbatim: the node dedups by seq and
     resends its cached reply, so retries never re-execute the command *)
  let frame = Wire.Cmd { seq; now; cmd } in
  let reply =
    with_retry co ~what
      ~send:(fun () -> Transport.send co.tr ~dst frame)
      ~accept:(function
        | Transport.Frame { src; frame = Wire.Reply { seq = s; reply } }
          when src = dst && s = seq ->
          Some reply
        | _ -> None)
  in
  match reply with
  | Wire.R_error { message } -> failf "node %d: %s (during %s)" dst message what
  | reply -> reply

(* a command whose reply is R_done: record its events, return them and
   the state *)
let command_done co ~dst ~now ~what cmd =
  match command co ~dst ~now ~what cmd with
  | Wire.R_done { events; state } ->
    record_events co ~pid:dst events;
    (events, state)
  | _ -> failf "node %d: wrong reply kind to %s" dst what

let simple co ~dst ~now ~what cmd = snd (command_done co ~dst ~now ~what cmd)

let query_state co ~pid =
  match command co ~dst:pid ~now:co.clock ~what:"state query" Wire.C_state with
  | Wire.R_state { state } -> state
  | _ -> failf "node %d: wrong reply kind to state query" pid

let observe co ~op states =
  co.observations <- { obs_op = op; obs_states = states } :: co.observations

(* --- registration ------------------------------------------------------ *)

let await_hello co ~expect_pid ~expect_recovering =
  await co ~what:"node registration"
    ~accept:(function
      | Transport.Frame { src; frame = Wire.Hello { pid; port; recovering } }
        when src = pid
             && (match expect_pid with Some p -> pid = p | None -> true)
             && recovering = expect_recovering ->
        Some (pid, port)
      | _ -> None)

(* Boot a registered node.  Its seq is fresh, so it becomes the node's
   at-most-once watermark: a delayed retransmission of any command sent
   to an earlier incarnation can never execute. *)
let configure co ~pid ~sends_ever =
  ignore
    (simple co ~dst:pid ~now:co.clock ~what:"configuration"
       (Wire.C_config
          {
            n = co.sc.Scenario.n;
            protocol = co.sc.Scenario.protocol.Rdt_protocols.Protocol.id;
            epoch = co.epoch;
            ports = Array.copy co.ports;
            sends_ever;
          }))

let register_fresh co =
  let n = co.sc.Scenario.n in
  let seen = Array.make n false in
  let remaining = ref n in
  while !remaining > 0 do
    let pid, port = await_hello co ~expect_pid:None ~expect_recovering:false in
    (* nodes re-send Hello until configured: duplicates just re-announce
       the same port, only the first sighting counts *)
    co.ports.(pid) <- port;
    if not seen.(pid) then begin
      seen.(pid) <- true;
      decr remaining
    end
  done;
  for pid = 0 to n - 1 do
    configure co ~pid ~sends_ever:0
  done;
  (* the transcript starts like the simulator's: every process stores s^0
     (the nodes' bootstrap did it before event capture began) *)
  for pid = 0 to n - 1 do
    Trace.record_checkpoint co.mirror ~pid ~index:0
  done

(* --- crash + recovery session ------------------------------------------ *)

(* A dead incarnation's stashed Hello must not satisfy the respawn wait:
   it would re-register a dead port (peers would dial into nothing). *)
let purge_stale co ~pid =
  let keep = Queue.create () in
  Queue.iter
    (fun ev ->
      match ev with
      | Transport.Frame { src; _ } when src = pid -> ()
      | ev -> Queue.add ev keep)
    co.stash;
  Queue.clear co.stash;
  Queue.transfer keep co.stash

(* One node as the recovery session sees it.  A rollback also truncates
   the node's log of the mirrored transcript, as the replay's in-memory
   rollback truncates its trace. *)
let session_handle co ~now pid =
  {
    Session.snapshot =
      (fun () ->
        match command co ~dst:pid ~now ~what:"snapshot" Wire.C_snapshot with
        | Wire.R_snapshot { entries; live_dv } ->
          { Global_gc.entries = Array.of_list entries; live_dv }
        | _ -> failf "node %d: wrong reply kind to snapshot" pid);
    rollback =
      (fun ~to_index ~li ->
        ignore
          (simple co ~dst:pid ~now ~what:"rollback"
             (Wire.C_rollback { to_index; li }));
        Trace.truncate_to_checkpoint co.mirror ~pid ~index:to_index);
    release =
      (fun ~li ->
        ignore
          (simple co ~dst:pid ~now ~what:"release" (Wire.C_release { li })));
  }

let crash_op co ~op ~faulty =
  let n = co.sc.Scenario.n in
  let now = tick co in
  let is_faulty = Array.make n false in
  List.iter (fun f -> is_faulty.(f) <- true) faulty;
  (* 1. kill the faulty processes (SIGKILL over TCP, receiver drop in the
     simulator): volatile state is really lost *)
  List.iter
    (fun f ->
      co.down.(f) <- true;
      co.ctl.kill f;
      purge_stale co ~pid:f)
    faulty;
  (* 2. stop-world flush: survivors discard staged frames and enter the
     next epoch; frames still in flight die by epoch mismatch *)
  co.epoch <- co.epoch + 1;
  for pid = 0 to n - 1 do
    if not is_faulty.(pid) then
      ignore
        (simple co ~dst:pid ~now ~what:"flush" (Wire.C_flush { epoch = co.epoch }))
  done;
  (* 3. respawn each faulty process from its durable store, telling it
     how many sends it ever made so its message ids stay unique.  All
     respawns must re-register BEFORE any C_config goes out: a respawned
     node redials every peer from the C_config's port table, so on a
     simultaneous multi-crash the table must already hold the other
     respawns' new ports — a dead incarnation's port is an ECONNREFUSED
     crash in the redialing node. *)
  List.iter (fun f -> co.ctl.respawn f) faulty;
  List.iter
    (fun f ->
      let _, port = await_hello co ~expect_pid:(Some f) ~expect_recovering:true in
      co.ports.(f) <- port;
      co.down.(f) <- false)
    faulty;
  List.iter (fun f -> configure co ~pid:f ~sends_ever:co.sends_ever.(f)) faulty;
  (* 4. the recovery session itself, each of its actions a command *)
  let report =
    Session.run ~faulty ~knowledge:co.sc.Scenario.knowledge
      (Array.init n (session_handle co ~now))
  in
  co.reports <- report :: co.reports;
  (* 5. observe every process, like the replay's post-crash oracles *)
  observe co ~op (List.init n (fun pid -> (pid, query_state co ~pid)))

(* --- the run ----------------------------------------------------------- *)

let execute co ~op (sop : Scenario.op) =
  match sop with
  | Scenario.Checkpoint p ->
    let now = tick co in
    let state = simple co ~dst:p ~now ~what:"checkpoint" Wire.C_checkpoint in
    observe co ~op [ (p, state) ]
  | Scenario.Send { id; src; dst } ->
    let now = tick co in
    let events, state =
      command_done co ~dst:src ~now ~what:"send" (Wire.C_send { dst })
    in
    begin
      match
        List.find_map
          (function Wire.T_send { msg_id; _ } -> Some msg_id | _ -> None)
          events
      with
      | Some msg_id ->
        Hashtbl.replace co.msgs id (src, msg_id, dst);
        observe co ~op [ (src, state) ]
      | None -> failf "node %d: a send reported no send event" src
    end
  | Scenario.Deliver id -> begin
    match Hashtbl.find_opt co.msgs id with
    | None -> failf "scenario op %d delivers unknown message %d" op id
    | Some (src, msg_id, dst) ->
      let now = tick co in
      let state =
        simple co ~dst ~now ~what:"deliver" (Wire.C_deliver { src; msg_id })
      in
      observe co ~op [ (dst, state) ]
  end
  | Scenario.Drop id -> begin
    match Hashtbl.find_opt co.msgs id with
    | None -> failf "scenario op %d drops unknown message %d" op id
    | Some (src, msg_id, dst) ->
      (* no tick: the script clock ignores losses *)
      let state =
        simple co ~dst ~now:co.clock ~what:"drop" (Wire.C_drop { src; msg_id })
      in
      observe co ~op [ (dst, state) ]
  end
  | Scenario.Crash faulty -> crash_op co ~op ~faulty

let run ~transport ~ctl ~scenario ?(timeout = 60.0) ?(log = ignore) () =
  let sc = Scenario.normalize scenario in
  let co =
    {
      tr = transport;
      ctl;
      sc;
      timeout;
      log;
      inbox = Queue.create ();
      stash = Queue.create ();
      mirror = Trace.create ~n:sc.Scenario.n;
      clock = 0.0;
      seq = 0;
      epoch = 0;
      ports = Array.make sc.Scenario.n 0;
      down = Array.make sc.Scenario.n false;
      sends_ever = Array.make sc.Scenario.n 0;
      msgs = Hashtbl.create 64;
      observations = [];
      reports = [];
    }
  in
  Transport.set_handler co.tr (fun ev -> Queue.add ev co.inbox);
  match
    co.log "registering nodes";
    register_fresh co;
    List.iteri
      (fun op sop ->
        co.log (Format.asprintf "op %d: %a" op Scenario.pp_op sop);
        execute co ~op sop)
      sc.Scenario.ops;
    co.log "shutting down";
    for pid = 0 to sc.Scenario.n - 1 do
      ignore (simple co ~dst:pid ~now:co.clock ~what:"shutdown" Wire.C_shutdown)
    done
  with
  | () ->
    Ok
      {
        rr_scenario = sc;
        rr_observations = List.rev co.observations;
        rr_trace = Trace.to_string co.mirror;
        rr_reports = List.rev co.reports;
      }
  | exception Failed msg -> Error msg
