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
   Ties at equal virtual time are broken by a key [(u, v)] that is a pure
   function of the simulation rather than of insertion order:

     delivery to [dst]      u = dst lsl 1         v = chan_seq * n + src
     action pinned to [p]   u = (p lsl 1) lor 1   v = per-process counter
     unpinned action        u = max_int           v = global counter

   [chan_seq] is a per-(src,dst) counter assigned by the sender, the
   action counters are assigned at scheduling time, and none is ever
   reset, so no two events of a run share a key (the precondition of
   {!Event_queue.add_keyed}).  Unpinned actions carry the largest [u], so at any timestamp every process's events
   precede every unpinned action.  The keys fix the event order the
   committed event-order golden pins (test_engine). *)

(* [execute_next] is the simulator's inner loop; rdt_lint holds it to
   alloc/* so dispatch allocates nothing beyond what the executed events
   themselves allocate.  [now] and [Event_queue.next_time] are
   float-returning [@inline] accessors: inlined, the floats stay unboxed;
   where a build does not inline [next_time] across modules each probe
   boxes, which is why the loop probes once per event. *)
[@@@lint.zero_alloc_hot "execute_next"]

type 'msg t = {
  n : int;
  rng : Prng.t;
  net : Network.t;
  queue : 'msg event Event_queue.t;
  (* one-element array, not a mutable float field: the clock is written on
     every event pop, and a float store into a mixed record would box *)
  clock : float array;
  st : stats;
  mutable epoch : int;  (* bumped by flush_in_flight; stale deliveries die *)
  up : bool array;
  receivers : (src:int -> 'msg -> unit) option array;
  chan_seq : int array;  (* per-(src,dst) send counter *)
  act_seq : int array;  (* per-process scheduled-action counter *)
  mutable glob_seq : int;
}

let rng t = t.rng
let[@inline] now t = t.clock.(0)
let stats t = { t.st with events = t.st.events }

let set_receiver t p f =
  if p < 0 || p >= t.n then invalid_arg "Engine.set_receiver: bad pid";
  t.receivers.(p) <- Some f

let send t ?(reliable = false) ~src ~dst msg =
  if dst < 0 || dst >= t.n then invalid_arg "Engine.send: bad destination";
  if src < 0 || src >= t.n then invalid_arg "Engine.send: bad source";
  let st = t.st in
  st.sent <- st.sent + 1;
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
  | None -> st.lost <- st.lost + 1
  | Some at ->
    let key = (src * t.n) + dst in
    let cseq = t.chan_seq.(key) in
    t.chan_seq.(key) <- cseq + 1;
    Event_queue.add_keyed t.queue ~time:at ~u:(dst lsl 1)
      ~v:((cseq * t.n) + src)
      (Deliver { src; dst; payload = msg; epoch = t.epoch })

let schedule t ?pin ~at f =
  if at < now t then invalid_arg "Engine.schedule: time in the past";
  match pin with
  | Some p ->
    if p < 0 || p >= t.n then invalid_arg "Engine.schedule: bad pid";
    let v = t.act_seq.(p) in
    t.act_seq.(p) <- v + 1;
    Event_queue.add_keyed t.queue ~time:at ~u:((p lsl 1) lor 1) ~v (Action f)
  | None ->
    let v = t.glob_seq in
    t.glob_seq <- v + 1;
    Event_queue.add_keyed t.queue ~time:at ~u:max_int ~v (Action f)

let schedule_in t ?pin ~delay f = schedule t ?pin ~at:(now t +. delay) f

let is_up t p = t.up.(p)
let set_up t p b = t.up.(p) <- b

let flush_in_flight t =
  t.epoch <- t.epoch + 1;
  Network.reset_order t.net

let execute t = function
  | Action f -> f ()
  | Deliver { src; dst; payload; epoch } ->
    let st = t.st in
    if epoch <> t.epoch then st.flushed <- st.flushed + 1
    else if not t.up.(dst) then st.dropped_down <- st.dropped_down + 1
    else begin
      match t.receivers.(dst) with
      | None -> invalid_arg "Engine: delivery to process without receiver"
      | Some f ->
        st.delivered <- st.delivered + 1;
        f ~src payload
    end

(* Execute the head event, whose timestamp [time] the caller has just read
   with [next_time] — passed on rather than probed again, since an
   out-of-line float return boxes. *)
let execute_next t time =
  let ev = Event_queue.pop t.queue in
  if time > t.clock.(0) then t.clock.(0) <- time;
  t.st.events <- t.st.events + 1;
  execute t ev

let run ?until t =
  let limit = Option.value until ~default:infinity in
  (* [next_time] is [infinity] on an empty queue, so the emptiness check
     and the limit check are one float compare — but that demands strict
     treatment of an infinite limit *)
  let rec loop () =
    let nt = Event_queue.next_time t.queue in
    if nt <= limit && nt < infinity then begin
      execute_next t nt;
      loop ()
    end
  in
  loop ();
  if limit < infinity && t.clock.(0) < limit then t.clock.(0) <- limit

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    execute_next t (Event_queue.next_time t.queue);
    true
  end

let create ~n ~seed ~net () =
  if n <= 0 then invalid_arg "Engine.create: n must be positive";
  let rng = Prng.create ~seed in
  {
    n;
    rng;
    net = Network.create net ~n ~rng:(Prng.split rng);
    queue = Event_queue.create ();
    clock = [| 0.0 |];
    st =
      {
        sent = 0;
        delivered = 0;
        lost = 0;
        dropped_down = 0;
        flushed = 0;
        events = 0;
      };
    epoch = 0;
    up = Array.make n true;
    receivers = Array.make n None;
    chan_seq = Array.make (n * n) 0;
    act_seq = Array.make n 0;
    glob_seq = 0;
  }
