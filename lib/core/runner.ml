module Engine = Rdt_sim.Engine
module Prng = Rdt_sim.Prng
module Trace = Rdt_ccp.Trace
module Ccp = Rdt_ccp.Ccp
module Middleware = Rdt_protocols.Middleware
module Stable_store = Rdt_storage.Stable_store
module Log_store = Rdt_store.Log_store
module Global_gc = Rdt_gc.Global_gc
module Session = Rdt_recovery.Session
module Recovery_line = Rdt_recovery.Recovery_line
module Process_stack = Rdt_recovery.Process_stack
module Workload = Rdt_workload.Workload
module Series = Rdt_metrics.Series

(* The coordinator of the round-based GC baselines.  Process 0 plays the
   role; if it is down, rounds stall until it recovers (coordinated
   collection depends on synchronization — the paper's point). *)
let coordinator = 0

type round_state = {
  mutable next_round : int;
  mutable open_round : int option;
  mutable replies : (int * Global_gc.snapshot) list;
  mutable expected : int list;
  mutable rounds_completed : int;
}

(* Spare piggyback buffers: the [n]-word [dv] arrays of delivered
   application messages.  [Middleware.receive] only borrows a message
   (Control's borrow contract), so once it returns the buffer can carry
   the next send's copy.  A recycled buffer has long been promoted, so
   filling it costs the minor GC nothing; a fresh copy per send would
   stay in flight across a minor collection and be promoted.  Messages
   that are lost, dropped at a down process or flushed by recovery never
   come back; the GC collects their buffers. *)
type spare = { mutable bufs : int array array; mutable count : int }

type t = {
  cfg : Sim_config.t;
  engine : Sim_msg.t Engine.t;
  trace : Trace.t;
  stacks : Process_stack.t array;
  middlewares : Middleware.t array;  (* flat view of [stacks], read per event *)
  workload : Workload.t;
  series_retained : Series.t array;
  series_total : Series.t;
  series_optimal : Series.t;
  rounds : round_state;
  mutable control_sent : int;
  mutable crashed_pending : int list;
  mutable recoveries : Session.report list;
  mutable on_sample : (t -> unit) option;
  (* Live CCP view, created on first [ccp] query so runs that never ask
     for the ground truth pay nothing; once created it folds each trace
     event as it is recorded instead of rebuilding from scratch. *)
  mutable ccp_incr : Ccp.Incremental.t option;
  spare : spare;
}

let config t = t.cfg
let engine t = t.engine
let now t = Engine.now t.engine
let trace t = t.trace
let stack t pid = t.stacks.(pid)
let middleware t pid = t.middlewares.(pid)
let collector t pid = Process_stack.collector t.stacks.(pid)
let ccp t =
  match t.ccp_incr with
  | Some incr -> Ccp.Incremental.ccp incr
  | None ->
    let incr = Ccp.Incremental.of_trace t.trace in
    t.ccp_incr <- Some incr;
    Ccp.Incremental.ccp incr
let retained_series t = t.series_retained
let total_retained_series t = t.series_total
let optimal_retained_series t = t.series_optimal
let recoveries t = List.rev t.recoveries
let set_on_sample t f = t.on_sample <- Some f
let log_store t pid = Process_stack.log_store t.stacks.(pid)
let log_stores t =
  List.filter_map Process_stack.log_store (Array.to_list t.stacks)
let durable t =
  Array.exists (fun s -> Option.is_some (Process_stack.log_store s)) t.stacks
let sync_stores t = List.iter Log_store.sync (log_stores t)
let close_stores t = Array.iter Process_stack.close t.stacks

let snapshots t = Array.map Session.snapshot_of t.middlewares

(* --- application activity ------------------------------------------- *)

let take_spare t =
  let s = t.spare in
  if s.count = 0 then Array.make t.cfg.Sim_config.n 0
  else begin
    s.count <- s.count - 1;
    let buf = s.bufs.(s.count) in
    (* the slot must not keep an in-flight buffer alive *)
    s.bufs.(s.count) <- [||];
    buf
  end

let return_spare t buf =
  let s = t.spare in
  if s.count = Array.length s.bufs then begin
    let bufs = Array.make (max 16 (2 * s.count)) [||] in
    Array.blit s.bufs 0 bufs 0 s.count;
    s.bufs <- bufs
  end;
  s.bufs.(s.count) <- buf;
  s.count <- s.count + 1

let app_send t ~src ~dst =
  let msg =
    Middleware.prepare_send ~into:(take_spare t) t.middlewares.(src) ~dst
      ~now:(Engine.now t.engine)
  in
  Engine.send t.engine ~src ~dst (Sim_msg.App msg)

let spontaneous_sends t pid =
  List.iter
    (fun dst -> app_send t ~src:pid ~dst)
    (Workload.destinations t.workload ~me:pid)

let reply_sends t pid ~src =
  List.iter
    (fun dst -> app_send t ~src:pid ~dst)
    (Workload.reply_destinations t.workload ~me:pid ~src)

(* Per-process timers are [pin]ned to their process and keep firing while
   it is down so they can re-arm; the [is_up] guard skips their work
   meanwhile. *)
let rec arm_send_timer t pid =
  let delay = Workload.next_send_delay t.workload ~me:pid in
  Engine.schedule_in t.engine ~pin:pid ~delay (fun () ->
      if Engine.is_up t.engine pid then spontaneous_sends t pid;
      arm_send_timer t pid)

let rec arm_ckpt_timer t pid =
  let delay = Workload.next_basic_ckpt_delay t.workload ~me:pid in
  Engine.schedule_in t.engine ~pin:pid ~delay (fun () ->
      if Engine.is_up t.engine pid then
        Middleware.basic_checkpoint t.middlewares.(pid)
          ~now:(Engine.now t.engine);
      arm_ckpt_timer t pid)

(* --- coordinated GC rounds ------------------------------------------ *)

let control_send t ~src ~dst msg =
  t.control_sent <- t.control_sent + 1;
  Engine.send t.engine ~reliable:true ~src ~dst msg

let control_messages t = t.control_sent

let start_round t =
  if Engine.is_up t.engine coordinator then begin
    (* abandon any round still open (a participant crashed mid-round) *)
    let round = t.rounds.next_round in
    t.rounds.next_round <- round + 1;
    t.rounds.open_round <- Some round;
    t.rounds.replies <- [];
    let up =
      List.filter
        (Engine.is_up t.engine)
        (List.init t.cfg.Sim_config.n Fun.id)
    in
    t.rounds.expected <- up;
    List.iter
      (fun pid ->
        if pid = coordinator then
          t.rounds.replies <-
            (pid, Session.snapshot_of t.middlewares.(pid)) :: t.rounds.replies
        else control_send t ~src:coordinator ~dst:pid (Sim_msg.Gc_query { round }))
      up
  end

let apply_collect t pid indices =
  let store = Middleware.store t.middlewares.(pid) in
  List.iter
    (fun index ->
      (* the checkpoint may already be gone if a rollback truncated it *)
      if Stable_store.mem store ~index then Stable_store.eliminate store ~index)
    indices

let finish_round t round =
  (* one reply per pid, so ordering by pid alone is total *)
  let members =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) t.rounds.replies
  in
  let participants = Array.of_list (List.map fst members) in
  let snaps = Array.of_list (List.map snd members) in
  (* The computations below see only the participants' state.  With a
     partial view, a missing (down) process's last checkpoint is unknown,
     so collecting based on it would be unsafe; rounds therefore only
     complete with full membership. *)
  if Array.length snaps = t.cfg.Sim_config.n then begin
    let plan =
      match t.cfg.Sim_config.gc with
      | Sim_config.Coordinated _ ->
        let li = Global_gc.last_interval_vector snaps in
        fun me -> Global_gc.collectable snaps.(me) ~li
      | Sim_config.Simple _ ->
        (* the simple baseline [5, 8] collects everything strictly below
           R_Pi, the recovery line for the failure of every process *)
        let line =
          Recovery_line.from_snapshots snaps
            ~faulty:(List.init (Array.length snaps) Fun.id)
        in
        fun me ->
          Array.to_list snaps.(me).Global_gc.entries
          |> List.filter_map (fun (e : Stable_store.entry) ->
                 if e.index < line.(me) then Some e.index else None)
      | Sim_config.No_gc | Sim_config.Local | Sim_config.Local_lazy _
      | Sim_config.Oracle_periodic _ ->
        fun _ -> []
    in
    Array.iteri
      (fun pos pid ->
        let indices = plan pos in
        if not (List.is_empty indices) then
          if pid = coordinator then apply_collect t pid indices
          else
            control_send t ~src:coordinator ~dst:pid
              (Sim_msg.Gc_collect { round; indices }))
      participants;
    t.rounds.rounds_completed <- t.rounds.rounds_completed + 1
  end;
  t.rounds.open_round <- None

let on_gc_reply t ~round ~pid snapshot =
  match t.rounds.open_round with
  | Some r when r = round ->
    if not (List.mem_assoc pid t.rounds.replies) then begin
      t.rounds.replies <- (pid, snapshot) :: t.rounds.replies;
      if List.length t.rounds.replies = List.length t.rounds.expected then
        finish_round t round
    end
  | Some _ | None -> ()

let rec arm_gc_timer t ~period =
  (* pinned to the coordinator: the round logic only touches the
     coordinator's state and sends control messages from it *)
  Engine.schedule_in t.engine ~pin:coordinator ~delay:period (fun () ->
      start_round t;
      arm_gc_timer t ~period)

(* Lazy Theorem-2 collection: the same causal knowledge as RDT-LGC,
   recomputed per process from scratch on a timer (ablation). *)
let lazy_local_collect t pid =
  let mw = t.middlewares.(pid) in
  let store = Middleware.store mw in
  let entries = Array.of_list (Stable_store.retained store) in
  (* borrowed: [collectable] only reads it during the call *)
  let live_dv =
    Rdt_causality.Dependency_vector.view (Middleware.dv mw)
  in
  List.iter
    (fun index -> Stable_store.eliminate store ~index)
    (Global_gc.collectable { Global_gc.entries; live_dv } ~li:live_dv)

let rec arm_lazy_local_timer t pid ~period =
  Engine.schedule_in t.engine ~pin:pid ~delay:period (fun () ->
      if Engine.is_up t.engine pid then lazy_local_collect t pid;
      arm_lazy_local_timer t pid ~period)

(* Idealized oracle: instant global knowledge, no messages. *)
let oracle_collect t =
  let snaps = snapshots t in
  let li = Global_gc.last_interval_vector snaps in
  for pid = 0 to t.cfg.Sim_config.n - 1 do
    apply_collect t pid (Global_gc.collectable snaps.(pid) ~li)
  done

let rec arm_oracle_timer t ~period =
  Engine.schedule_in t.engine ~delay:period (fun () ->
      if Array.for_all Fun.id
           (Array.init t.cfg.Sim_config.n (Engine.is_up t.engine))
      then oracle_collect t;
      arm_oracle_timer t ~period)

(* --- receive path ---------------------------------------------------- *)

let handle_message t pid ~src msg =
  match msg with
  | Sim_msg.App m ->
    Middleware.receive t.middlewares.(pid) m ~now:(Engine.now t.engine);
    return_spare t m.Middleware.control.Rdt_protocols.Control.dv;
    reply_sends t pid ~src
  | Sim_msg.Gc_query { round } ->
    control_send t ~src:pid ~dst:coordinator
      (Sim_msg.Gc_reply
         { round; pid; snapshot = Session.snapshot_of t.middlewares.(pid) })
  | Sim_msg.Gc_reply { round; pid = replier; snapshot } ->
    on_gc_reply t ~round ~pid:replier snapshot
  | Sim_msg.Gc_collect { round = _; indices } -> apply_collect t pid indices

(* --- faults and recovery -------------------------------------------- *)

let crash t pid =
  Engine.set_up t.engine pid false;
  t.crashed_pending <- pid :: t.crashed_pending

let recover t pid =
  Engine.set_up t.engine pid true;
  match t.crashed_pending with
  | [] -> () (* already rolled back during a concurrent session *)
  | faulty ->
    t.crashed_pending <- [];
    (* stop-world session: atomic in virtual time; in-transit messages are
       discarded (the CCP excludes lost and in-transit messages) *)
    Engine.flush_in_flight t.engine;
    t.rounds.open_round <- None;
    let report =
      Process_stack.session t.stacks ~faulty
        ~knowledge:t.cfg.Sim_config.knowledge
    in
    t.recoveries <- report :: t.recoveries

(* --- sampling --------------------------------------------------------- *)

let sample t =
  let time = Engine.now t.engine in
  let total = ref 0 in
  Array.iteri
    (fun pid mw ->
      let count = Stable_store.count (Middleware.store mw) in
      total := !total + count;
      Series.add_int t.series_retained.(pid) ~time ~value:count)
    t.middlewares;
  Series.add_int t.series_total ~time ~value:!total;
  if t.cfg.Sim_config.protocol.Rdt_protocols.Protocol.rdt then begin
    let snaps = snapshots t in
    let li = Global_gc.last_interval_vector snaps in
    let optimal = ref 0 in
    for pid = 0 to t.cfg.Sim_config.n - 1 do
      optimal := !optimal + List.length (Global_gc.retained snaps.(pid) ~li)
    done;
    Series.add_int t.series_optimal ~time ~value:!optimal
  end;
  match t.on_sample with Some f -> f t | None -> ()

let rec arm_sample_timer t =
  Engine.schedule_in t.engine ~delay:t.cfg.Sim_config.sample_interval
    (fun () ->
      sample t;
      arm_sample_timer t)

(* --- construction ----------------------------------------------------- *)

let create (cfg : Sim_config.t) =
  Sim_config.validate cfg;
  let engine = Engine.create ~n:cfg.n ~seed:cfg.seed ~net:cfg.net () in
  let trace = Trace.create ~n:cfg.n in
  (* Every pid's directory is opened and checked before any stack stores
     its s^0, so a stale directory is rejected without writing into the
     others. *)
  let logs =
    Array.init cfg.n (fun me ->
        match cfg.store with
        | Sim_config.Memory -> None
        | Sim_config.Durable { dir; config } ->
          let ls =
            Log_store.create ~config ~pid:me
              ~dir:(Filename.concat dir (Printf.sprintf "p%d" me))
              ()
          in
          if not (List.is_empty (Log_store.recovery ls).Log_store.recovered)
          then
            invalid_arg
              (Printf.sprintf
                 "Runner.create: store directory %s already holds \
                  checkpoints; use a fresh directory (recover existing \
                  ones through Rdt_store.Log_store)"
                 dir);
          Some ls)
  in
  let with_lgc =
    match cfg.gc with
    | Sim_config.Local -> true
    | Sim_config.No_gc | Sim_config.Local_lazy _ | Sim_config.Coordinated _
    | Sim_config.Simple _ | Sim_config.Oracle_periodic _ ->
      false
  in
  let stacks =
    Array.init cfg.n (fun me ->
        Process_stack.create ~n:cfg.n ~me ~protocol:cfg.protocol ~trace
          ~ckpt_bytes:cfg.ckpt_bytes ?log:logs.(me) ~with_lgc ())
  in
  let workload =
    Workload.create cfg.workload ~n:cfg.n
      ~rng:(Prng.split (Engine.rng engine))
  in
  let t =
    {
      cfg;
      engine;
      trace;
      stacks;
      middlewares = Array.map Process_stack.middleware stacks;
      workload;
      series_retained =
        Array.init cfg.n (fun pid ->
            Series.create ~name:(Printf.sprintf "retained-p%d" pid));
      series_total = Series.create ~name:"retained-total";
      series_optimal = Series.create ~name:"retained-optimal";
      rounds =
        {
          next_round = 0;
          open_round = None;
          replies = [];
          expected = [];
          rounds_completed = 0;
        };
      control_sent = 0;
      crashed_pending = [];
      recoveries = [];
      on_sample = None;
      ccp_incr = None;
      spare = { bufs = [||]; count = 0 };
    }
  in
  for pid = 0 to cfg.n - 1 do
    Engine.set_receiver engine pid (fun ~src msg -> handle_message t pid ~src msg);
    arm_send_timer t pid;
    arm_ckpt_timer t pid
  done;
  (match cfg.gc with
  | Sim_config.Coordinated { period } | Sim_config.Simple { period } ->
    arm_gc_timer t ~period
  | Sim_config.Oracle_periodic { period } -> arm_oracle_timer t ~period
  | Sim_config.Local_lazy { period } ->
    for pid = 0 to cfg.n - 1 do
      arm_lazy_local_timer t pid ~period
    done
  | Sim_config.No_gc | Sim_config.Local -> ());
  List.iter
    (fun { Sim_config.crash_at; pid; repair_after } ->
      Engine.schedule t.engine ~at:crash_at (fun () -> crash t pid);
      Engine.schedule t.engine ~at:(crash_at +. repair_after) (fun () ->
          recover t pid))
    cfg.faults;
  arm_sample_timer t;
  t

let run t = Engine.run ~until:t.cfg.Sim_config.duration t.engine
let step t = Engine.step t.engine

(* --- summary ----------------------------------------------------------- *)

type summary = {
  n : int;
  duration : float;
  protocol : string;
  gc : string;
  basic_checkpoints : int;
  forced_checkpoints : int;
  stored_total : int;
  eliminated_total : int;
  final_retained : int array;
  peak_retained : int array;
  peak_retained_global : int;
  mean_total_retained : float;
  mean_optimal_retained : float;
  app_messages : int;
  piggyback_words : int;
  control_messages : int;
  gc_rounds : int;
  recovery_sessions : int;
  checkpoints_rolled_back : int;
  store_segments : int;
  store_live_bytes : int;
  store_dead_bytes : int;
  store_compactions : int;
}

let summary t =
  let stores = Array.map Middleware.store t.middlewares in
  let store_stats = Array.map Stable_store.stats stores in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let engine_stats = Engine.stats t.engine in
  let log_stats = List.map Log_store.stats (log_stores t) in
  let sum_log f = List.fold_left (fun acc s -> acc + f s) 0 log_stats in
  {
    n = t.cfg.Sim_config.n;
    duration = t.cfg.Sim_config.duration;
    protocol = t.cfg.Sim_config.protocol.Rdt_protocols.Protocol.id;
    gc = Sim_config.gc_policy_name t.cfg.Sim_config.gc;
    basic_checkpoints = sum Middleware.basic_count t.middlewares;
    forced_checkpoints = sum Middleware.forced_count t.middlewares;
    stored_total =
      sum (fun (s : Stable_store.stats) -> s.stored_total) store_stats;
    eliminated_total =
      sum (fun (s : Stable_store.stats) -> s.eliminated_total) store_stats;
    final_retained = Array.map Stable_store.count stores;
    peak_retained =
      Array.map (fun (s : Stable_store.stats) -> s.peak_count) store_stats;
    peak_retained_global =
      (let m = Series.max_value t.series_total in
       if m = neg_infinity then 0 else int_of_float m);
    mean_total_retained = Rdt_metrics.Stats.mean (Series.stats t.series_total);
    mean_optimal_retained =
      (if Series.length t.series_optimal = 0 then nan
       else Rdt_metrics.Stats.mean (Series.stats t.series_optimal));
    app_messages = engine_stats.Engine.sent - control_messages t;
    piggyback_words =
      (engine_stats.Engine.sent - control_messages t)
      * (t.cfg.Sim_config.n + 1);
    control_messages = control_messages t;
    gc_rounds = t.rounds.rounds_completed;
    recovery_sessions = List.length t.recoveries;
    checkpoints_rolled_back =
      List.fold_left
        (fun acc (r : Session.report) -> acc + r.checkpoints_rolled_back)
        0 t.recoveries;
    store_segments = sum_log (fun (s : Log_store.stats) -> s.segments);
    store_live_bytes = sum_log (fun (s : Log_store.stats) -> s.live_bytes);
    store_dead_bytes = sum_log (fun (s : Log_store.stats) -> s.dead_bytes);
    store_compactions = sum_log (fun (s : Log_store.stats) -> s.compactions);
  }

let pp_summary ppf s =
  let pp_ints ppf a =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
      Format.pp_print_int ppf (Array.to_list a)
  in
  Format.fprintf ppf
    "@[<v>%d processes, %.0f time units, protocol=%s, gc=%s@,\
     checkpoints: %d basic + %d forced = %d stored, %d eliminated@,\
     retained: final=(%a) peak=(%a) global-peak=%d@,\
     mean total retained %.2f (optimal %.2f)@,\
     messages: %d app (%d piggybacked control words), %d control (%d gc rounds)@,\
     recoveries: %d sessions, %d checkpoints rolled back"
    s.n s.duration s.protocol s.gc s.basic_checkpoints s.forced_checkpoints
    s.stored_total s.eliminated_total pp_ints s.final_retained pp_ints
    s.peak_retained s.peak_retained_global s.mean_total_retained
    s.mean_optimal_retained s.app_messages s.piggyback_words
    s.control_messages s.gc_rounds s.recovery_sessions
    s.checkpoints_rolled_back;
  if s.store_segments > 0 then
    Format.fprintf ppf
      "@,durable store: %d segments, %d live B / %d dead B, %d compactions"
      s.store_segments s.store_live_bytes s.store_dead_bytes
      s.store_compactions;
  Format.fprintf ppf "@]"
