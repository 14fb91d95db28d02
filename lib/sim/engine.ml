module Barrier_team = Rdt_parallel.Barrier_team

type 'msg event =
  | Deliver of { src : int; dst : int; payload : 'msg; epoch : int }
  | Action of (unit -> unit)

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable dropped_down : int;
  mutable flushed : int;
  mutable events : int;
}

(* Canonical event keys.
   Execution order must be a pure function of (seed, config), independent
   of shard count and of which shard inserted an event first, so ties at
   equal virtual time are broken by an interleaving-independent key
   [(u, v)] instead of insertion order:

     delivery to [dst]      u = dst lsl 1         v = chan_seq * n + src
     action routed to [p]   u = (p lsl 1) lor 1   v = per-process counter
     global action          u = max_int           v = global counter

   [chan_seq] is a per-(src,dst) counter assigned by the sender (in the
   sender's own deterministic execution order), the action counters are
   assigned at scheduling time (in the owning process's deterministic
   order, or at a barrier for globals).  Global actions carry the largest
   [u], so at any timestamp every process-routed event precedes every
   global — which is exactly the order the windowed executor produces
   when it closes a window before running globals.  The sequential
   (shards = 1) executor uses one queue ordered by the same keys, so both
   modes replay the identical event sequence. *)

(* The window loop below is the sharded simulator's inner loop; rdt_lint
   holds the named functions to alloc/* so a steady-state window allocates
   nothing beyond what the executed events themselves allocate (see
   DESIGN.md §13 for the measured storm this discipline replaced). *)
(* [fmin], [now] and [Event_queue.next_time] are float-returning [@inline]
   accessors: they stay out of the hot set (the boxed-float rule is about
   out-of-line returns; inlined into these loops the floats stay unboxed,
   and where a build does not inline [next_time] across modules, each
   probe boxes — which is why a loop probes once per event). *)
[@@@lint.zero_alloc_hot
  "self_shard" "read_stamp" "step_shard" "process_shard" "window_job"
  "grow_outcell" "outbox_push" "drain_outboxes" "any_local_le" "window_round"
  "finish_mt"]

(* The mt/* ownership contract (DESIGN.md §16).  These functions execute
   inside a window — on a team member's domain under parallel dispatch —
   so every mutable write in them must stay on state owned by their
   declared root: the shard/slice index ([window_job], [process_shard]),
   the shard record itself ([step_shard], [execute]), the caller's stamp
   cell ([read_stamp]), the sending process ([send], and [outbox_push],
   whose mailbox row [ss] belongs to the writing shard), the process a
   scheduled action is pinned to ([schedule]), or the cell being grown
   ([grow_outcell]).  The barrier-side functions ([dispatch],
   [drain_outboxes], [window_round], [exec_globals_at], [create]) run on
   the caller's domain with the team parked and are deliberately not
   scopes. *)
[@@@lint.domain_scope
  "window_job:s" "process_shard:s" "step_shard:sh" "execute:sh"
  "read_stamp:c" "send:src" "schedule:pin" "outbox_push:ss"
  "grow_outcell:box"]
[@@@lint.domain_index "self_shard"]

let[@inline] fmin (a : float) (b : float) = if a < b then a else b

type 'msg shard = {
  queue : 'msg event Event_queue.t;
  (* one-element array, not a mutable float field: the clock is written on
     every event pop, and a float store into a mixed record would box *)
  clock : float array;
  st : stats;
  (* canonical key of the event this shard is currently executing; the
     trace reads it through [read_stamp] to timestamp its records *)
  mutable cur_u : int;
  mutable cur_v : int;
}

(* Pooled inter-shard mailbox cell, struct-of-arrays so a cross-shard send
   under parallel dispatch writes four slots instead of allocating a
   record per message.  Only parallel dispatch uses mailboxes at all — a
   window stepped inline ({!step}) inserts straight into the destination
   queue (see [send]). *)
type 'msg outcell = {
  mutable o_len : int;
  mutable o_time : float array;
  mutable o_u : int array;
  mutable o_v : int array;
  mutable o_ev : 'msg event array;
}

(* [Windows] = shards executing their slices; [Global] = at a window
   barrier on the caller's domain; [Idle] = not inside [run]. *)
type phase = Idle | Windows | Global

let in_windows = function Windows -> true | Idle | Global -> false

type 'msg t = {
  n : int;
  nshards : int;
  shard_of : int array;  (* contiguous blocks: pid / ceil(n / nshards) *)
  rng : Prng.t;
  net : Network.t;
  shards : 'msg shard array;
  global : 'msg event Event_queue.t;  (* unrouted actions; barrier-only *)
  gclock : float array;  (* one element; see [shard.clock] *)
  mutable gcur_v : int;  (* v of the global action being executed *)
  mutable phase : phase;
  mutable epoch : int;  (* bumped by flush_in_flight; stale deliveries die *)
  up : bool array;
  receivers : (src:int -> 'msg -> unit) option array;
  chan_seq : int array;  (* per-(src,dst) send counter *)
  act_seq : int array;  (* per-process scheduled-action counter *)
  mutable glob_seq : int;
  mutable setup_seq : int;  (* stamps records made outside any event *)
  (* inter-shard mailboxes (parallel dispatch only): cell
     [src_shard * nshards + dst_shard] is written only by [src_shard]
     during a window and drained into the destination queues by the
     caller at the barrier.  [out_dirty.(s)] = shard s pushed something
     this window; rows of clean shards are skipped at the drain. *)
  outbox : 'msg outcell array;
  out_dirty : bool array;
  lookahead : float;  (* conservative window width = min message delay *)
  (* window-executor state, preallocated so the loop allocates nothing *)
  his : float array;  (* per-shard window boundary for this round *)
  wscratch : float array;  (* [min; second-min] of the shard head times *)
  mutable win_inclusive : bool;  (* close events at exactly the boundary *)
  mutable active_shard : int;  (* slice the caller runs (inline dispatch) *)
  mutable parallel : bool;  (* inside a team round *)
  mutable job : int -> unit;  (* the one window job, reused every round *)
}

let fresh_stats () =
  { sent = 0; delivered = 0; lost = 0; dropped_down = 0; flushed = 0; events = 0 }

let shards t = t.nshards
let rng t = t.rng

(* the shard whose slice the current domain is executing; under parallel
   dispatch the team member index is the shard index, in a window stepped
   inline the engine tracks the slice it is running itself (the caller
   is team member 0, which would misattribute every non-zero slice) *)
let self_shard t =
  if t.parallel then Barrier_team.self_index () else t.active_shard

let[@inline] now t =
  if t.nshards = 1 then t.shards.(0).clock.(0)
  else
    match t.phase with
    | Windows -> t.shards.(self_shard t).clock.(0)
    | Global | Idle -> t.gclock.(0)

let read_stamp t (c : Stamp.t) =
  match t.phase with
  | Idle ->
    (* setup-time records (initial checkpoints): ordered before every
       event, in call order *)
    let k = t.setup_seq in
    (t.setup_seq <- k + 1)
    [@lint.single_writer
      "Idle phase: no window is executing, so the caller's domain is the \
       only writer"];
    Stamp.set c ~time:neg_infinity ~u:0 ~v:k
  | Global -> Stamp.set c ~time:t.gclock.(0) ~u:max_int ~v:t.gcur_v
  | Windows ->
    let sh = t.shards.(self_shard t) in
    Stamp.set c ~time:sh.clock.(0) ~u:sh.cur_u ~v:sh.cur_v

let stats t =
  let acc = fresh_stats () in
  Array.iter
    (fun sh ->
      acc.sent <- acc.sent + sh.st.sent;
      acc.delivered <- acc.delivered + sh.st.delivered;
      acc.lost <- acc.lost + sh.st.lost;
      acc.dropped_down <- acc.dropped_down + sh.st.dropped_down;
      acc.flushed <- acc.flushed + sh.st.flushed;
      acc.events <- acc.events + sh.st.events)
    t.shards;
  acc

let set_receiver t p f =
  if p < 0 || p >= t.n then invalid_arg "Engine.set_receiver: bad pid";
  t.receivers.(p) <- Some f

(* --- pooled mailboxes (parallel dispatch only) ------------------------- *)

let grow_outcell box ev =
  let cap = Array.length box.o_time in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let o_time =
    (Array.make ncap 0.0
     [@lint.allow "alloc" "amortized doubling; absent from steady state"])
  in
  let o_u =
    (Array.make ncap 0
     [@lint.allow "alloc" "amortized doubling; absent from steady state"])
  in
  let o_v =
    (Array.make ncap 0
     [@lint.allow "alloc" "amortized doubling; absent from steady state"])
  in
  let o_ev =
    (Array.make ncap ev
     [@lint.allow "alloc" "amortized doubling; absent from steady state"])
  in
  Array.blit box.o_time 0 o_time 0 box.o_len;
  Array.blit box.o_u 0 o_u 0 box.o_len;
  Array.blit box.o_v 0 o_v 0 box.o_len;
  Array.blit box.o_ev 0 o_ev 0 box.o_len;
  box.o_time <- o_time;
  box.o_u <- o_u;
  box.o_v <- o_v;
  box.o_ev <- o_ev

let outbox_push t ss ds ~time ~u ~v ev =
  let box = t.outbox.((ss * t.nshards) + ds) in
  let len = box.o_len in
  if len = Array.length box.o_time then grow_outcell box ev;
  box.o_time.(len) <- time;
  box.o_u.(len) <- u;
  box.o_v.(len) <- v;
  box.o_ev.(len) <- ev;
  box.o_len <- len + 1;
  t.out_dirty.(ss) <- true

(* a pooled cell keeps the events of its last window alive until they are
   overwritten — the same bounded-staleness trade-off as Event_queue's
   value column *)
let drain_outboxes t =
  let k = t.nshards in
  for ss = 0 to k - 1 do
    if t.out_dirty.(ss) then begin
      t.out_dirty.(ss) <- false;
      let base = ss * k in
      for ds = 0 to k - 1 do
        let box = t.outbox.(base + ds) in
        let len = box.o_len in
        if len > 0 then begin
          let q = t.shards.(ds).queue in
          for j = 0 to len - 1 do
            Event_queue.add_keyed q ~time:box.o_time.(j) ~u:box.o_u.(j)
              ~v:box.o_v.(j) box.o_ev.(j)
          done;
          box.o_len <- 0
        end
      done
    end
  done

(* --- sends and schedules ----------------------------------------------- *)

let send t ?(reliable = false) ~src ~dst msg =
  if dst < 0 || dst >= t.n then invalid_arg "Engine.send: bad destination";
  if src < 0 || src >= t.n then invalid_arg "Engine.send: bad source";
  let mt = t.nshards > 1 in
  let ss = t.shard_of.(src) in
  if mt && in_windows t.phase && ss <> self_shard t then
    invalid_arg "Engine.send: send on behalf of a process of another shard";
  let sh = t.shards.(ss) in
  sh.st.sent <- sh.st.sent + 1;
  let tnow = now t in
  let delivery =
    match Network.delivery_time t.net ~src ~dst ~now:tnow with
    | None when reliable ->
      (* reliable control channel: retransmission is abstracted away as a
         delivery at the far end of the delay range *)
      Some (tnow +. (Network.config t.net).Network.max_delay)
    | d -> d
  in
  match delivery with
  | None -> sh.st.lost <- sh.st.lost + 1
  | Some at ->
    let key = (src * t.n) + dst in
    let cseq = t.chan_seq.(key) in
    t.chan_seq.(key) <- cseq + 1;
    let u = dst lsl 1 and v = (cseq * t.n) + src in
    let ev = Deliver { src; dst; payload = msg; epoch = t.epoch } in
    let ds = t.shard_of.(dst) in
    (* Cross-shard sends go through a mailbox only under parallel
       dispatch, where the destination queue belongs to another domain; a
       window stepped inline inserts directly — the arrival is at
       [>= send_time + lookahead], beyond every slice boundary of this
       window, so the destination can never have passed it
       (DESIGN.md §13). *)
    if t.parallel && in_windows t.phase && ds <> ss then
      outbox_push t ss ds ~time:at ~u ~v ev
    else
      (Event_queue.add_keyed t.shards.(ds).queue ~time:at ~u ~v ev)
      [@lint.single_writer
        "cross-shard under parallel dispatch took the outbox branch above; \
         here either ds = sender's shard or a single domain runs every \
         slice (inline dispatch)"]

let schedule t ?pin ~at f =
  if at < now t then invalid_arg "Engine.schedule: time in the past";
  match pin with
  | Some p ->
    if p < 0 || p >= t.n then invalid_arg "Engine.schedule: bad pid";
    let ds = t.shard_of.(p) in
    if t.nshards > 1 && in_windows t.phase && ds <> self_shard t then
      invalid_arg "Engine.schedule: action routed to another shard";
    let v = t.act_seq.(p) in
    t.act_seq.(p) <- v + 1;
    Event_queue.add_keyed t.shards.(ds).queue ~time:at ~u:((p lsl 1) lor 1) ~v
      (Action f)
  | None ->
    begin
      if t.nshards > 1 && in_windows t.phase then
        invalid_arg
          "Engine.schedule: global (unrouted) action from inside a shard; \
           pin it";
      let v = t.glob_seq in
      t.glob_seq <- v + 1;
      let q = if t.nshards = 1 then t.shards.(0).queue else t.global in
      Event_queue.add_keyed q ~time:at ~u:max_int ~v
        (Action f)
    end
    [@lint.single_writer
      "the invalid_arg above rejects this branch inside windows; at a \
       barrier the caller's domain is alone"]

let schedule_in t ?pin ~delay f = schedule t ?pin ~at:(now t +. delay) f

let is_up t p = t.up.(p)

let set_up t p b =
  if t.nshards > 1 && in_windows t.phase then
    invalid_arg "Engine.set_up: only from a barrier context";
  t.up.(p) <- b

let flush_in_flight t =
  if t.nshards > 1 && in_windows t.phase then
    invalid_arg "Engine.flush_in_flight: only from a barrier context";
  (* mailboxes are empty at any barrier (drained on entry), so bumping the
     epoch kills precisely the deliveries still queued *)
  t.epoch <- t.epoch + 1;
  Network.reset_order t.net

let execute t sh = function
  | Action f -> f ()
  | Deliver { src; dst; payload; epoch } ->
    if epoch <> t.epoch then sh.st.flushed <- sh.st.flushed + 1
    else if not t.up.(dst) then sh.st.dropped_down <- sh.st.dropped_down + 1
    else begin
      match t.receivers.(dst) with
      | None -> invalid_arg "Engine: delivery to process without receiver"
      | Some f ->
        sh.st.delivered <- sh.st.delivered + 1;
        f ~src payload
    end

(* --- sequential executor (shards = 1) --------------------------------- *)

(* Execute the head event of [sh]'s queue, whose timestamp [time] the
   caller has just read with [next_time] — passed on rather than probed
   again, since an out-of-line float return boxes. *)
let step_shard t sh time =
  let ev = Event_queue.pop sh.queue in
  if time > sh.clock.(0) then sh.clock.(0) <- time;
  sh.cur_u <- Event_queue.last_u sh.queue;
  sh.cur_v <- Event_queue.last_v sh.queue;
  sh.st.events <- sh.st.events + 1;
  execute t sh ev

let run_seq t ~limit =
  t.phase <- Windows;
  let sh = t.shards.(0) in
  (* [next_time] is [infinity] on an empty queue, so the emptiness check
     and the limit check are one float compare — but that demands strict
     treatment of an infinite limit *)
  let rec loop () =
    let nt = Event_queue.next_time sh.queue in
    if nt <= limit && nt < infinity then begin
      step_shard t sh nt;
      loop ()
    end
  in
  loop ();
  t.phase <- Idle;
  if limit < infinity && sh.clock.(0) < limit then sh.clock.(0) <- limit;
  t.gclock.(0) <- sh.clock.(0)

(* --- windowed executor (shards > 1) ----------------------------------- *)

(* One shard's slice of the current round: events strictly below (or, for
   a closing round, up to) the shard's boundary [his.(s)]. *)
let rec process_shard t s =
  let sh = t.shards.(s) in
  let nt = Event_queue.next_time sh.queue in
  let hi = t.his.(s) in
  if nt < hi || (t.win_inclusive && nt = hi) then begin
    step_shard t sh nt;
    process_shard t s
  end

let window_job t s =
  (* under inline dispatch the engine itself tracks which slice the
     caller's domain is executing; under parallel dispatch the team
     member index already is the shard index *)
  if not t.parallel then
    (t.active_shard <- s)
    [@lint.single_writer
      "inline dispatch only: one domain runs every slice in turn"];
  process_shard t s

(* One dispatch: every shard processes its slice, then the caller drains
   the mailboxes at the barrier (parallel dispatch only — inline slices
   insert cross-shard sends directly). *)
let dispatch t team =
  t.phase <- Windows;
  (match team with
  | Some team ->
    t.parallel <- true;
    (try Barrier_team.run_sub team ~active:t.nshards t.job
     with e ->
       t.parallel <- false;
       raise e);
    t.parallel <- false;
    drain_outboxes t
  | None ->
    for s = 0 to t.nshards - 1 do
      t.job s
    done);
  t.phase <- Global

let rec any_local_le t (hi : float) s =
  s < t.nshards
  && (Event_queue.next_time t.shards.(s).queue <= hi
     || any_local_le t hi (s + 1))

(* Globals at [boundary], one at a time: a global may schedule routed
   actions at the same timestamp, whose canonical keys precede the next
   global's, so the shard slices get a chance to run between globals.
   [boundary] is finite, so an empty global queue ([next_time] infinite)
   never matches. *)
let exec_globals_at t team boundary =
  let rec go () =
    if Event_queue.next_time t.global = boundary then begin
      let ev = Event_queue.pop t.global in
      t.gcur_v <- Event_queue.last_v t.global;
      t.shards.(0).st.events <- t.shards.(0).st.events + 1;
      execute t t.shards.(0) ev;
      if any_local_le t boundary 0 then begin
        Array.fill t.his 0 t.nshards boundary;
        t.win_inclusive <- true;
        dispatch t team
      end;
      go ()
    end
  in
  go ()

(* One conservative round.  Let [e_s] be shard [s]'s earliest pending
   event, [w = min e_s], and [gb] the closest barrier (next global action
   or the run limit).  While any shard still has events below [gb], shard
   [d] may safely process everything strictly below

     hi_d = min(gb, min_{s<>d} e_s + L, e_d + 2L)

   where [L] is the lookahead: any cross-shard arrival into [d] descends
   from an event currently queued at some shard — at [>= e_s + L] when it
   starts at [s <> d], and at [>= e_d + 2L] when it starts at [d] itself
   (the influence must leave [d] and come back, two hops of at least [L]
   each).  Shards clustered at the same virtual time get the classic
   symmetric [w + L] window, while a shard running ahead of the field (or
   alone) advances up to [2L] per round and an idle shard costs only a
   queue-head probe.  Once no event remains below [gb], events at exactly
   [gb] are closed inclusively — where their canonical keys sort — and
   the globals run at the barrier. *)
let window_round t team ~limit =
  let k = t.nshards in
  let ng = Event_queue.next_time t.global in
  let gb = fmin ng limit in
  let ws = t.wscratch in
  ws.(0) <- infinity;
  ws.(1) <- infinity;
  for s = 0 to k - 1 do
    let e = Event_queue.next_time t.shards.(s).queue in
    if e < ws.(0) then begin
      ws.(1) <- ws.(0);
      ws.(0) <- e
    end
    else if e < ws.(1) then ws.(1) <- e
  done;
  let w = ws.(0) in
  let nxt = fmin w ng in
  (* nothing at or below the limit — and an empty system ([nxt] infinite)
     is done even when the limit itself is infinite *)
  if nxt > limit || nxt = infinity then false
  else if w >= gb then begin
    (* close the region at [gb]: events at exactly [gb] first, then the
       globals carried by the barrier *)
    if any_local_le t gb 0 then begin
      Array.fill t.his 0 k gb;
      t.win_inclusive <- true;
      dispatch t team
    end;
    if gb > t.gclock.(0) then t.gclock.(0) <- gb;
    exec_globals_at t team gb;
    true
  end
  else begin
    let m2 = ws.(1) in
    let l = t.lookahead in
    for d = 0 to k - 1 do
      let e = Event_queue.next_time t.shards.(d).queue in
      let m_other = if e = w then m2 else w in
      t.his.(d) <- fmin gb (fmin (m_other +. l) (e +. (l +. l)))
    done;
    t.win_inclusive <- false;
    dispatch t team;
    true
  end

(* allocation-free (wscratch, not a ref): [step] calls this once per
   event/window, so it is part of the steady state the alloc tests pin *)
let finish_mt t ~limit =
  let ws = t.wscratch in
  ws.(0) <- t.gclock.(0);
  for s = 0 to t.nshards - 1 do
    if t.shards.(s).clock.(0) > ws.(0) then ws.(0) <- t.shards.(s).clock.(0)
  done;
  t.gclock.(0) <- (if limit < infinity && ws.(0) < limit then limit else ws.(0));
  t.phase <- Idle

let run ?until t =
  let limit = Option.value until ~default:infinity in
  if t.nshards = 1 then run_seq t ~limit
  else begin
    match Barrier_team.shared_acquire ~size:t.nshards with
    | Some team ->
      Fun.protect
        ~finally:(fun () ->
          Barrier_team.shared_release team;
          finish_mt t ~limit)
        (fun () -> while window_round t (Some team) ~limit do () done)
    | None ->
      (* another engine holds the shared team (concurrent sharded runs):
         fall back to a private one for this run *)
      let team = Barrier_team.create ~size:t.nshards in
      Fun.protect
        ~finally:(fun () ->
          Barrier_team.shutdown team;
          finish_mt t ~limit)
        (fun () -> while window_round t (Some team) ~limit do () done)
  end

let step t =
  if t.nshards = 1 then begin
    let sh = t.shards.(0) in
    if Event_queue.is_empty sh.queue then false
    else begin
      t.phase <- Windows;
      step_shard t sh (Event_queue.next_time sh.queue);
      t.phase <- Idle;
      t.gclock.(0) <- sh.clock.(0);
      true
    end
  end
  else begin
    (* one conservative round, executed on the calling domain —
       determinism does not depend on parallel dispatch, only throughput *)
    let r = window_round t None ~limit:infinity in
    finish_mt t ~limit:infinity;
    r
  end

(* --- construction ------------------------------------------------------ *)

let create ~n ~seed ~net ?(shards = 1) () =
  if n <= 0 then invalid_arg "Engine.create: n must be positive";
  if shards < 1 then invalid_arg "Engine.create: shards must be >= 1";
  let requested = min shards n in
  if requested > 1 && net.Network.min_delay <= 0.0 then
    invalid_arg
      "Engine.create: shards > 1 requires positive network min_delay \
       (conservative windows need non-zero lookahead)";
  (* windows exist so domains can run between barriers without seeing
     each other; without a hardware thread per shard they buy nothing,
     and the sequential loop replays the same canonical order *)
  let nshards =
    if requested > 1 && Barrier_team.hardware_parallelism () < requested then 1
    else requested
  in
  let rng = Prng.create ~seed in
  let block = (n + nshards - 1) / nshards in
  let t =
    {
      n;
      nshards;
      shard_of = Array.init n (fun pid -> pid / block);
      rng;
      net = Network.create net ~n ~rng:(Prng.split rng);
      shards =
        Array.init nshards (fun _ ->
            {
              queue = Event_queue.create ();
              clock = [| 0.0 |];
              st = fresh_stats ();
              cur_u = 0;
              cur_v = 0;
            });
      global = Event_queue.create ();
      gclock = [| 0.0 |];
      gcur_v = 0;
      phase = Idle;
      epoch = 0;
      up = Array.make n true;
      receivers = Array.make n None;
      chan_seq = Array.make (n * n) 0;
      act_seq = Array.make n 0;
      glob_seq = 0;
      setup_seq = 0;
      outbox =
        Array.init (nshards * nshards) (fun _ ->
            { o_len = 0; o_time = [||]; o_u = [||]; o_v = [||]; o_ev = [||] });
      out_dirty = Array.make nshards false;
      lookahead = net.Network.min_delay;
      his = Array.make nshards 0.0;
      wscratch = Array.make 2 infinity;
      win_inclusive = false;
      active_shard = 0;
      parallel = false;
      job = (fun (_ : int) -> ());
    }
  in
  t.job <- window_job t;
  t
