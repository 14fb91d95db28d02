module Vector_clock = Rdt_causality.Vector_clock
module Vec = Rdt_sim.Vec

type ckpt = { pid : int; index : int }

type message = {
  id : int;
  src : int;
  send_interval : int;
  send_seq : int;
  dst : int;
  recv_interval : int;
  recv_seq : int;
}

(* The CCP graph is stored in growable vectors so that an incremental
   builder can extend it in place, one trace event at a time; a one-shot
   [of_trace] CCP is simply a builder that is never extended again. *)
type t = {
  n : int;
  ckpt_vc : Vector_clock.t Vec.t array;  (* [pid] -> VC of s^0 .. s^last *)
  volatile_vc : Vector_clock.t array;  (* running (= volatile) VC per pid *)
  messages : message Vec.t;
}

type pending_send = {
  p_vc : Vector_clock.t;
  p_src : int;
  p_send_interval : int;
  p_send_seq : int;
}

(* Fold state shared by [of_trace] and the incremental builder.  The
   volatile VC of [state] doubles as the running clock of the fold. *)
type builder = {
  b_ccp : t;
  b_cur_interval : int array;
  b_pending : (int, pending_send) Hashtbl.t;
}

let empty_builder ~n =
  {
    b_ccp =
      {
        n;
        ckpt_vc = Array.init n (fun _ -> Vec.create ());
        volatile_vc = Array.init n (fun _ -> Vector_clock.create ~n);
        messages = Vec.create ();
      };
    b_cur_interval = Array.make n 0;
    b_pending = Hashtbl.create 64;
  }

let reset_builder b =
  let s = b.b_ccp in
  Array.iter Vec.clear s.ckpt_vc;
  Array.iter
    (fun vc ->
      for j = 0 to s.n - 1 do
        Vector_clock.set vc j 0
      done)
    s.volatile_vc;
  Vec.clear s.messages;
  Array.fill b.b_cur_interval 0 s.n 0;
  Hashtbl.reset b.b_pending

let handle_event b ev =
  let s = b.b_ccp in
  let pid = Trace.View.pid ev in
  let vc = s.volatile_vc.(pid) in
  Vector_clock.tick vc pid;
  match Trace.View.tag ev with
  | Trace.Checkpoint ->
    let index = Trace.View.payload ev in
    if index <> Vec.length s.ckpt_vc.(pid) then
      invalid_arg
        (Printf.sprintf
           "Ccp.of_trace: process %d records checkpoint %d, expected %d" pid
           index
           (Vec.length s.ckpt_vc.(pid)));
    Vec.push s.ckpt_vc.(pid) (Vector_clock.copy vc);
    b.b_cur_interval.(pid) <- index + 1
  | Trace.Send ->
    Hashtbl.replace b.b_pending (Trace.View.payload ev)
      {
        p_vc = Vector_clock.copy vc;
        p_src = pid;
        p_send_interval = b.b_cur_interval.(pid);
        p_send_seq = Trace.View.seq ev;
      }
  | Trace.Receive -> begin
    let msg_id = Trace.View.payload ev and src = Trace.View.peer ev in
    match Hashtbl.find_opt b.b_pending msg_id with
    | None ->
      invalid_arg
        (Printf.sprintf
           "Ccp.of_trace: orphan receive of message %d at process %d" msg_id
           pid)
    | Some p ->
      if p.p_src <> src then
        invalid_arg "Ccp.of_trace: receive names the wrong sender";
      Hashtbl.remove b.b_pending msg_id;
      Vector_clock.merge_into ~dst:vc ~src:p.p_vc;
      Vec.push s.messages
        {
          id = msg_id;
          src;
          send_interval = p.p_send_interval;
          send_seq = p.p_send_seq;
          dst = pid;
          recv_interval = b.b_cur_interval.(pid);
          recv_seq = Trace.View.seq ev;
        }
  end

let check_initial_checkpoints s =
  for pid = 0 to s.n - 1 do
    if Vec.is_empty s.ckpt_vc.(pid) then
      invalid_arg
        (Printf.sprintf "Ccp.of_trace: process %d has no initial checkpoint"
           pid)
  done

let build_from_trace b trace = Trace.iter trace (handle_event b)

let of_trace trace =
  let b = empty_builder ~n:(Trace.n trace) in
  build_from_trace b trace;
  check_initial_checkpoints b.b_ccp;
  b.b_ccp

let n t = t.n
let last_stable t pid = Vec.length t.ckpt_vc.(pid) - 1
let volatile_index t pid = Vec.length t.ckpt_vc.(pid)
let last_stable_ckpt t pid = { pid; index = last_stable t pid }

let mem t c =
  c.pid >= 0 && c.pid < t.n && c.index >= 0 && c.index <= volatile_index t c.pid

let is_volatile t c = c.index = volatile_index t c.pid
let is_stable t c = mem t c && c.index <= last_stable t c.pid

let checkpoints t =
  List.concat
    (List.init t.n (fun pid ->
         List.init (volatile_index t pid + 1) (fun index -> { pid; index })))

let messages t = Vec.to_array t.messages

let vc t c =
  if not (mem t c) then invalid_arg "Ccp.vc: checkpoint not in CCP";
  if is_volatile t c then t.volatile_vc.(c.pid)
  else Vec.get t.ckpt_vc.(c.pid) c.index

let precedes t c1 c2 =
  if not (mem t c1 && mem t c2) then
    invalid_arg "Ccp.precedes: checkpoint not in CCP";
  if c1.pid = c2.pid && c1.index = c2.index then false
  else if is_volatile t c1 then false
  else
    (* event test: e -> f iff VC(e).(proc e) <= VC(f).(proc e) *)
    Vector_clock.get (vc t c1) c1.pid <= Vector_clock.get (vc t c2) c1.pid

(* Upward closure: [c -> c^g_pid] implies [c -> c^(g+1)_pid], because the
   test reads [VC(c^g_pid).(c.pid)], which never decreases with [g].  So
   the checkpoints of [pid] that [c] precedes form a suffix, found by a
   binary search for its first index. *)
let first_preceded t c ~pid =
  if not (mem t c && pid >= 0 && pid < t.n) then
    invalid_arg "Ccp.first_preceded: checkpoint not in CCP";
  let none = volatile_index t pid + 1 in
  if is_volatile t c then none
  else if c.pid = pid then c.index + 1
  else begin
    let e = Vector_clock.get (vc t c) c.pid in
    (* the answer lies in [lo, hi]; [hi = none] stands for "no index" *)
    let lo = ref 0 and hi = ref none in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let entry = Vector_clock.get (vc t { pid; index = mid }) c.pid in
      if e <= entry then hi := mid else lo := mid + 1
    done;
    !lo
  end

let pp_ckpt ppf c = Format.fprintf ppf "c%d_p%d" c.index c.pid

let pp ppf t =
  Format.fprintf ppf "@[<v>CCP: %d processes, %d messages" t.n
    (Vec.length t.messages);
  for pid = 0 to t.n - 1 do
    Format.fprintf ppf "@,  p%d: %d stable checkpoints (+volatile)" pid
      (last_stable t pid + 1)
  done;
  Format.fprintf ppf "@]"

module Incremental = struct
  type t = {
    trace : Trace.t;
    builder : builder;
    mutable dirty : bool;
  }

  let rebuild t =
    reset_builder t.builder;
    build_from_trace t.builder t.trace;
    t.dirty <- false

  let of_trace trace =
    let t = { trace; builder = empty_builder ~n:(Trace.n trace); dirty = false } in
    build_from_trace t.builder trace;
    (* Appends fold into the graph as they happen; a truncation (rollback)
       can retract already-folded events, so it flags a full rebuild
       instead.  While dirty, appended events are ignored — the rebuild
       replays the whole trace anyway. *)
    Trace.on_event trace (fun ev -> if not t.dirty then handle_event t.builder ev);
    Trace.on_truncate trace (fun ~pid:_ -> t.dirty <- true);
    t

  let ccp t =
    if t.dirty then rebuild t;
    check_initial_checkpoints t.builder.b_ccp;
    t.builder.b_ccp
end
