(* One live process of the cluster: the full protocol stack (middleware +
   RDT-LGC + durable store) behind a transport endpoint.  The node keeps
   no transcript: its muted trace only mints message ids and taps each
   event into the next reply, and the coordinator's mirror is the run's
   one transcript.  The node is purely reactive — it answers coordinator
   commands and stages peer App frames — and backend-agnostic: the same
   logic runs over TCP sockets (its own OS process) and inside the
   deterministic simulator.

   Delivery is staged: an inbound App frame is held until the coordinator
   commands its delivery (C_deliver names the exact message), which is
   how the live cluster realizes a scenario's explicit interleaving over
   channels with their own timing.  Frames carry an epoch; a crash bumps
   it (C_flush), so stragglers from before a recovery session are
   discarded exactly like the in-transit messages a stop-world session
   flushes.

   The live runtime is single-domain by design: each node is one OS
   process (or one simulated process) owning all of its state, and
   cross-node sharing happens only through the transport. *)

module Transport = Rdt_transport.Transport
module Wire = Rdt_transport.Wire
module Trace = Rdt_ccp.Trace
module Dependency_vector = Rdt_causality.Dependency_vector
module Stable_store = Rdt_storage.Stable_store
module Log_store = Rdt_store.Log_store
module Protocol = Rdt_protocols.Protocol
module Middleware = Rdt_protocols.Middleware
module Control = Rdt_protocols.Control
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Process_stack = Rdt_recovery.Process_stack
module Harness = Rdt_verify.Harness

type armed = { a_seq : int; a_now : float; a_src : int; a_msg_id : int }

type t = {
  tr : Transport.t;
  me : int;
  dir : string;
  recovering : bool;
      (* the store directory held data at start: a respawn, which boots
         from the store *)
  mutable epoch : int;
  mutable sys : Process_stack.t option;
  staged : (int * int, int array * int) Hashtbl.t;
      (* (src, msg_id) -> piggybacked (dv, control index) *)
  doomed : (int * int, unit) Hashtbl.t;
      (* dropped before the frame arrived; discard on arrival *)
  mutable armed : armed option;
      (* delivery commanded before the frame arrived; reply deferred *)
  mutable events : Wire.tev list;  (* newest first, drained per reply *)
  mutable watermark : int;
      (* at-most-once dedup: highest command seq answered.  The C_config
         seq is fresh, so once booted, no command sent to an earlier
         incarnation can execute *)
  mutable last_reply : Wire.reply option;
      (* cached reply for [watermark], resent verbatim on a retransmission
         so retried non-idempotent commands never re-execute *)
  mutable hello : (unit -> unit) option;
      (* re-send registration until C_config arrives (the Hello itself may
         be dropped by a nemesis or arrive before the coordinator) *)
  mutable finished : bool;
  mutable coord_down : bool;  (* the coordinator's link died/closed *)
  dup_deliver : bool;
      (* test-only mutation (RDTGC_TEST_DUP_DELIVER=1 at creation):
         deliver every message twice, a real duplication bug the live-fuzz
         self-check must catch *)
}

(* the registration retry timer; nemesis delay releases live at ids >=
   0x40000000 (see [Rdt_transport.Nemesis.wrap]), far above this *)
let hello_timer_id = 1
let hello_retry = 0.5

let store_dir dir = Filename.concat dir "store"

let drain t =
  let evs = List.rev t.events in
  t.events <- [];
  evs

let state_of sys =
  let mw = Process_stack.middleware sys in
  {
    Wire.st_dv = Dependency_vector.to_array (Middleware.dv mw);
    (* nodes always run RDT-LGC, so every stack has a collector *)
    st_uc = Rdt_lgc.uc_view (Option.get (Process_stack.collector sys));
    st_retained =
      Array.of_list (Stable_store.retained_indices (Process_stack.store sys));
    st_app = Middleware.app_state mw;
  }

let reply t ~seq reply =
  t.watermark <- seq;
  t.last_reply <- Some reply;
  Transport.send t.tr ~dst:Transport.coordinator_id (Wire.Reply { seq; reply })

(* --- boot -------------------------------------------------------------- *)

let boot t ~n ~protocol ~epoch ~ports ~sends_ever =
  t.hello <- None;
  let protocol =
    match Protocol.by_id protocol with
    | Some p -> p
    | None -> failwith ("node: unknown protocol " ^ protocol)
  in
  t.epoch <- epoch;
  let dir = store_dir t.dir in
  let trace = Trace.create ~n in
  Trace.set_recording trace false;
  let log = Log_store.create ~config:Harness.log_config ~pid:t.me ~dir () in
  let sys =
    if t.recovering then begin
      (* respawn after a kill: volatile state is rebuilt from what the
         durable log recovered, and message ids, monotone across
         rollbacks, resume past every send the node ever made *)
      Trace.restore_msg_ids trace ~pid:t.me ~count:sends_ever;
      Process_stack.restore ~n ~me:t.me ~protocol ~trace ~log ~with_lgc:true ()
    end
    else
      (* fresh start: s^0 goes through the durable backend, exactly like
         the simulator's bootstrap *)
      Process_stack.create ~n ~me:t.me ~protocol ~trace ~log ~with_lgc:true ()
  in
  (* subscribe only now: the s^0 bootstrap is not a new event as far as
     the coordinator's transcript is concerned *)
  Trace.on_event trace (fun ev -> t.events <- Wire.tev_of_view ev :: t.events);
  t.sys <- Some sys;
  (* establish the peer mesh: on a fresh start lower ids are dialed by
     higher ids (one link per pair); a respawned node redials everyone,
     and the peers' transports swap in the new link *)
  for j = 0 to n - 1 do
    if j <> t.me && (t.recovering || j < t.me) then
      Transport.connect t.tr ~dst:j ~port:ports.(j)
  done;
  sys

(* --- delivery ---------------------------------------------------------- *)

let do_deliver t sys ~now ~src ~msg_id ~dv ~index =
  let mw = Process_stack.middleware sys in
  Middleware.receive mw
    { Middleware.msg_id; src; control = Control.make ~dv ~index () }
    ~now;
  if t.dup_deliver then
    Middleware.receive mw
      { Middleware.msg_id; src; control = Control.make ~dv ~index () }
      ~now

let handle_app t ~src ~(frame_epoch : int) ~msg_id ~dv ~index =
  if frame_epoch = t.epoch then begin
    match (t.armed, t.sys) with
    | Some a, Some sys when a.a_src = src && a.a_msg_id = msg_id ->
      t.armed <- None;
      do_deliver t sys ~now:a.a_now ~src ~msg_id ~dv ~index;
      reply t ~seq:a.a_seq (Wire.R_done { events = drain t; state = state_of sys })
    | _ ->
      if Hashtbl.mem t.doomed (src, msg_id) then
        Hashtbl.remove t.doomed (src, msg_id)
      else Hashtbl.replace t.staged (src, msg_id) (dv, index)
  end
(* stale epoch: the frame was in flight across a recovery session and the
   stop-world flush already discarded it logically *)

(* --- commands ---------------------------------------------------------- *)

let run_cmd t sys ~seq ~now cmd =
  let mw = Process_stack.middleware sys in
  let done_ () =
    reply t ~seq (Wire.R_done { events = drain t; state = state_of sys })
  in
  match (cmd : Wire.cmd) with
  | C_checkpoint ->
    Middleware.basic_checkpoint mw ~now;
    done_ ()
  | C_send { dst } ->
    let m = Middleware.prepare_send mw ~dst ~now in
    Transport.send t.tr ~dst
      (Wire.App
         {
           epoch = t.epoch;
           msg_id = m.Middleware.msg_id;
           src = t.me;
           dv = m.Middleware.control.Control.dv;
           index = m.Middleware.control.Control.index;
         });
    done_ ()
  | C_deliver { src; msg_id } -> begin
    match Hashtbl.find_opt t.staged (src, msg_id) with
    | Some (dv, index) ->
      Hashtbl.remove t.staged (src, msg_id);
      do_deliver t sys ~now ~src ~msg_id ~dv ~index;
      done_ ()
    | None ->
      (* frame still in flight: deliver (and reply) on arrival *)
      t.armed <- Some { a_seq = seq; a_now = now; a_src = src; a_msg_id = msg_id }
  end
  | C_drop { src; msg_id } ->
    if Hashtbl.mem t.staged (src, msg_id) then
      Hashtbl.remove t.staged (src, msg_id)
    else Hashtbl.replace t.doomed (src, msg_id) ();
    done_ ()
  | C_flush { epoch } ->
    t.epoch <- epoch;
    Hashtbl.reset t.staged;
    Hashtbl.reset t.doomed;
    t.armed <- None;
    done_ ()
  | C_snapshot ->
    reply t ~seq
      (Wire.R_snapshot
         {
           entries = Stable_store.retained (Process_stack.store sys);
           live_dv = Dependency_vector.to_array (Middleware.dv mw);
         })
  | C_rollback { to_index; li } ->
    Middleware.rollback mw ~to_index ~li;
    done_ ()
  | C_release { li } ->
    Process_stack.release_outdated sys ~li;
    done_ ()
  | C_state -> reply t ~seq (Wire.R_state { state = state_of sys })
  | C_shutdown ->
    Process_stack.close sys;
    t.finished <- true;
    done_ ()
  | C_config _ -> failwith "node: already configured"

let handle_cmd t ~seq ~now (cmd : Wire.cmd) =
  match (cmd, t.sys) with
  | C_config { n; protocol; epoch; ports; sends_ever }, None ->
    let sys = boot t ~n ~protocol ~epoch ~ports ~sends_ever in
    reply t ~seq (Wire.R_done { events = []; state = state_of sys })
  | _, None -> failwith "node: command before configuration"
  | cmd, Some sys -> run_cmd t sys ~seq ~now cmd

(* --- event handler ----------------------------------------------------- *)

let handle t (ev : Transport.event) =
  match ev with
  | Transport.Frame { src; frame = Wire.App { epoch; msg_id; src = _; dv; index } }
    ->
    handle_app t ~src ~frame_epoch:epoch ~msg_id ~dv ~index
  | Transport.Frame { src; frame = Wire.Cmd { seq; now; cmd } }
    when src = Transport.coordinator_id ->
    (* at-most-once: the coordinator retransmits commands it got no
       reply to (nemesis drop/delay), and commands are not idempotent —
       dedup by seq and resend the cached reply instead of re-executing *)
    if seq < t.watermark then ()
    else if seq = t.watermark then
      Option.iter
        (fun r ->
          Transport.send t.tr ~dst:Transport.coordinator_id
            (Wire.Reply { seq; reply = r }))
        t.last_reply
    else begin
      match t.armed with
      | Some a when a.a_seq = seq ->
        ()  (* retransmission of the armed delivery; arrival will reply *)
      | _ -> begin
        try handle_cmd t ~seq ~now cmd
        with e ->
          reply t ~seq (Wire.R_error { message = Printexc.to_string e })
      end
    end
  | Transport.Timer { id } when id = hello_timer_id -> begin
    match t.hello with
    | Some resend ->
      resend ();
      Transport.set_timer t.tr ~id:hello_timer_id ~after:hello_retry
    | None -> ()
  end
  | Transport.Peer_down { peer } when peer = Transport.coordinator_id ->
    t.coord_down <- true
  | Transport.Frame { src = _; frame = Wire.Hello _ }
  | Transport.Frame { src = _; frame = Wire.Ident _ }
  | Transport.Frame { src = _; frame = Wire.Reply _ }
  | Transport.Frame { src = _; frame = Wire.Cmd _ }
  | Transport.Garbled _  (* corruption detected and resynchronized past *)
  | Transport.Peer_down _ | Transport.Timer _ ->
    ()

(* --- lifecycle --------------------------------------------------------- *)

let create ~transport ~dir () =
  let me = Transport.me transport in
  Log_store.mkdir_p dir;
  let sdir = store_dir dir in
  let recovering =
    Sys.file_exists sdir && Array.length (Sys.readdir sdir) > 0
  in
  let t =
    {
      tr = transport;
      me;
      dir;
      recovering;
      epoch = 0;
      sys = None;
      staged = Hashtbl.create 16;
      doomed = Hashtbl.create 16;
      armed = None;
      events = [];
      watermark = 0;
      last_reply = None;
      hello = None;
      finished = false;
      coord_down = false;
      dup_deliver =
        (match Sys.getenv_opt "RDTGC_TEST_DUP_DELIVER" with
        | Some "1" -> true
        | _ -> false);
    }
  in
  Transport.set_handler transport (handle t);
  let send_hello () =
    Transport.send transport ~dst:Transport.coordinator_id
      (Wire.Hello
         { pid = me; port = Transport.listen_port transport; recovering })
  in
  send_hello ();
  (* registration is unacknowledged until C_config: keep re-sending in
     case the Hello was lost (set_handler above replays any buffered
     C_config, so [hello] may already be cleared by the time we get here) *)
  if Option.is_none t.sys then begin
    t.hello <- Some send_hello;
    Transport.set_timer transport ~id:hello_timer_id ~after:hello_retry
  end;
  t

let main ~transport ~dir () =
  let t = create ~transport ~dir () in
  (* after C_shutdown, linger until the coordinator hangs up: its ack may
     have been lost (nemesis), and the retransmitted command must still
     find this process alive to resend the cached reply *)
  while not (t.finished && t.coord_down) do
    match Transport.poll transport ~timeout:1.0 with
    | `Progress | `Timeout -> ()
    | `Idle -> failwith "node: transport went idle"
  done;
  Transport.close transport
