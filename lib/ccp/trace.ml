module Vec = Rdt_sim.Vec
module Stamp = Rdt_sim.Stamp

type kind =
  | Checkpoint of { index : int }
  | Send of { msg_id : int; dst : int }
  | Receive of { msg_id : int; src : int }

type event = { mutable seq : int; pid : int; kind : kind }

(* Pooled buffer of not-yet-sequenced records for one process: the engine
   event's key [(time, u, v)] plus [k], the rank of the record among those
   made by the same process under the same key (one engine event can
   record several trace events).  Struct-of-arrays rather than a vector of
   stamp records, so a sharded run buffers each record by writing five
   slots instead of allocating a record and boxing a float — per-record
   stamping was a measurable share of the multi-shard allocation storm
   (DESIGN.md §13). *)
type pending = {
  mutable p_len : int;
  mutable p_time : float array;
  mutable p_u : int array;
  mutable p_v : int array;
  mutable p_k : int array;
  mutable p_ev : event array;
}

type t = {
  n : int;
  logs : event Vec.t array;
  mutable next_seq : int;
  (* per-process msg-id counters: id = k * n + pid, so ids are unique and
     a pure function of the sender's own history — no global counter whose
     value would depend on cross-process interleaving *)
  next_msg_id : int array;
  mutable recording : bool;
  mutable on_event : (event -> unit) list;
  mutable on_truncate : (pid:int -> unit) list;
  (* When set (sharded runs), records are buffered unsequenced per process
     with a stamp drawn from this source, and {!finalize} later assigns
     [seq] in canonical order and fires [on_event] — producing the exact
     linearization the sequential engine records directly.  When unset,
     records are sequenced immediately at append (the historical path).
     The source writes into the caller's cell (no tuple per record);
     cells are per pid, not shared: under parallel dispatch several
     domains record concurrently, and a single shared cell would let two
     shards read each other's stamp (or a torn mix), corrupting the
     canonical keys.  A pid is only ever executed by its owning shard's
     domain, so [stamp_cells.(pid)] is single-writer. *)
  mutable order_source : (Stamp.t -> unit) option;
  stamp_cells : Stamp.t array;
  pending : pending array;  (* per process, so shards never share *)
  last_time : float array;
  last_u : int array;
  last_v : int array;
  last_k : int array;
}

(* Recording runs inside engine windows, concurrently across shards
   under parallel dispatch, so everything [record] (and the helpers it
   calls) writes is striped by the recording process: log vectors,
   last-stamp rows, msg-id counters, stamp cells and pending buffers are
   all per pid, and a pid only executes on its owning shard's domain.
   [finalize] and the serialization below run at a barrier (or after the
   run) and are deliberately not scopes. *)
[@@@lint.domain_scope
  "record:pid" "pending_push:p" "pending_grow:p" "fresh_msg_id:pid"]

let fresh_pending () =
  { p_len = 0; p_time = [||]; p_u = [||]; p_v = [||]; p_k = [||]; p_ev = [||] }

let create ~n =
  if n <= 0 then invalid_arg "Trace.create: n must be positive";
  {
    n;
    logs = Array.init n (fun _ -> Vec.create ());
    next_seq = 0;
    next_msg_id = Array.make n 0;
    recording = true;
    on_event = [];
    on_truncate = [];
    order_source = None;
    stamp_cells = Array.init n (fun _ -> Stamp.create ());
    pending = Array.init n (fun _ -> fresh_pending ());
    last_time = Array.make n nan;
    last_u = Array.make n 0;
    last_v = Array.make n 0;
    last_k = Array.make n 0;
  }

let n t = t.n
let set_recording t b = t.recording <- b
let on_event t f = t.on_event <- f :: t.on_event
let on_truncate t f = t.on_truncate <- f :: t.on_truncate
let set_order_source t f = t.order_source <- Some f

let pending_grow p ev =
  let cap = Array.length p.p_time in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let p_time = Array.make ncap 0.0 in
  let p_u = Array.make ncap 0 in
  let p_v = Array.make ncap 0 in
  let p_k = Array.make ncap 0 in
  let p_ev = Array.make ncap ev in
  Array.blit p.p_time 0 p_time 0 p.p_len;
  Array.blit p.p_u 0 p_u 0 p.p_len;
  Array.blit p.p_v 0 p_v 0 p.p_len;
  Array.blit p.p_k 0 p_k 0 p.p_len;
  Array.blit p.p_ev 0 p_ev 0 p.p_len;
  p.p_time <- p_time;
  p.p_u <- p_u;
  p.p_v <- p_v;
  p.p_k <- p_k;
  p.p_ev <- p_ev

let pending_push p ~time ~u ~v ~k ev =
  let len = p.p_len in
  if len = Array.length p.p_time then pending_grow p ev;
  p.p_time.(len) <- time;
  p.p_u.(len) <- u;
  p.p_v.(len) <- v;
  p.p_k.(len) <- k;
  p.p_ev.(len) <- ev;
  p.p_len <- len + 1

let finalize t =
  let total = Array.fold_left (fun acc p -> acc + p.p_len) 0 t.pending in
  if total > 0 then begin
    (* flatten the per-process buffers, sort an index permutation by
       stamp, and sequence in that order — the once-per-run cost *)
    let f_time = Array.make total 0.0 in
    let f_u = Array.make total 0 in
    let f_v = Array.make total 0 in
    let f_k = Array.make total 0 in
    (* seed from the first non-empty buffer: process 0 may have buffered
       nothing even when [total > 0], leaving its [p_ev] still [||] *)
    let seed =
      let rec first i =
        if t.pending.(i).p_len > 0 then t.pending.(i).p_ev.(0)
        else first (i + 1)
      in
      first 0
    in
    let f_ev = Array.make total seed in
    let pos = ref 0 in
    Array.iter
      (fun p ->
        Array.blit p.p_time 0 f_time !pos p.p_len;
        Array.blit p.p_u 0 f_u !pos p.p_len;
        Array.blit p.p_v 0 f_v !pos p.p_len;
        Array.blit p.p_k 0 f_k !pos p.p_len;
        Array.blit p.p_ev 0 f_ev !pos p.p_len;
        pos := !pos + p.p_len;
        p.p_len <- 0)
      t.pending;
    let perm = Array.init total Fun.id in
    let compare_idx a b =
      let c = Float.compare f_time.(a) f_time.(b) in
      if c <> 0 then c
      else
        let c = Int.compare f_u.(a) f_u.(b) in
        if c <> 0 then c
        else
          let c = Int.compare f_v.(a) f_v.(b) in
          if c <> 0 then c
          else
            let c = Int.compare f_k.(a) f_k.(b) in
            if c <> 0 then c
            else Int.compare f_ev.(a).pid f_ev.(b).pid
    in
    Array.sort compare_idx perm;
    Array.iter
      (fun i ->
        let ev = f_ev.(i) in
        ev.seq <- t.next_seq;
        t.next_seq <- t.next_seq + 1;
        List.iter (fun f -> f ev) t.on_event)
      perm
  end

let record t ~pid kind =
  if pid < 0 || pid >= t.n then invalid_arg "Trace.record: bad pid";
  if t.recording then begin
    match t.order_source with
    | None ->
      let ev = { seq = t.next_seq; pid; kind } in
      (t.next_seq <- t.next_seq + 1)
      [@lint.single_writer
        "no order source means sequential or inline dispatch: a single \
         domain records (sharded runs install a source and take the \
         other branch)"];
      Vec.push t.logs.(pid) ev;
      List.iter (fun f -> f ev) t.on_event
    | Some source ->
      let cell = t.stamp_cells.(pid) in
      source cell;
      let tm = Stamp.time cell in
      let u = Stamp.u cell in
      let v = Stamp.v cell in
      let k =
        if
          Float.equal tm t.last_time.(pid)
          && u = t.last_u.(pid)
          && v = t.last_v.(pid)
        then t.last_k.(pid) + 1
        else 0
      in
      t.last_time.(pid) <- tm;
      t.last_u.(pid) <- u;
      t.last_v.(pid) <- v;
      t.last_k.(pid) <- k;
      let ev = { seq = -1; pid; kind } in
      Vec.push t.logs.(pid) ev;
      pending_push t.pending.(pid) ~time:tm ~u ~v ~k ev
  end

(* the [recording] test is replicated here so a muted trace (benchmarks,
   long soak runs) does not even allocate the [kind] constructor *)
let record_checkpoint t ~pid ~index =
  if t.recording then record t ~pid (Checkpoint { index })

let record_send t ~pid ~msg_id ~dst =
  if t.recording then record t ~pid (Send { msg_id; dst })

let record_receive t ~pid ~msg_id ~src =
  if t.recording then record t ~pid (Receive { msg_id; src })

let fresh_msg_id t ~pid =
  let k = t.next_msg_id.(pid) in
  t.next_msg_id.(pid) <- k + 1;
  (k * t.n) + pid

let restore_msg_ids t ~pid ~count =
  if count > t.next_msg_id.(pid) then t.next_msg_id.(pid) <- count

let last_checkpoint_index t ~pid =
  Vec.fold_left
    (fun acc ev ->
      match ev.kind with Checkpoint { index } -> max acc index | Send _ | Receive _ -> acc)
    (-1) t.logs.(pid)

let events_of t ~pid =
  finalize t;
  Vec.to_list t.logs.(pid)

let all_events t =
  finalize t;
  let all =
    Array.to_list t.logs |> List.concat_map Vec.to_list
  in
  List.sort (fun a b -> Int.compare a.seq b.seq) all

let truncate_to_checkpoint t ~pid ~index =
  (* sequence everything first: pending records of the truncated suffix
     must reach subscribers (they happened) before the retraction does *)
  finalize t;
  let log = t.logs.(pid) in
  let cut = ref (-1) in
  Vec.iteri
    (fun i ev ->
      match ev.kind with
      | Checkpoint { index = idx } when idx = index -> cut := i
      | Checkpoint _ | Send _ | Receive _ -> ())
    log;
  if !cut < 0 then
    invalid_arg "Trace.truncate_to_checkpoint: checkpoint not in trace";
  Vec.truncate log (!cut + 1);
  List.iter (fun f -> f ~pid) t.on_truncate

(* Serialization *)

let magic = "rdtgc-trace 1"

(* the one formatter: hands each line, newline included, to [emit] *)
let iter_lines t emit =
  emit (magic ^ "\n");
  emit (Printf.sprintf "n %d\n" t.n);
  List.iter
    (fun ev ->
      emit
        (match ev.kind with
        | Checkpoint { index } -> Printf.sprintf "C %d %d\n" ev.pid index
        | Send { msg_id; dst } -> Printf.sprintf "S %d %d %d\n" ev.pid msg_id dst
        | Receive { msg_id; src } ->
          Printf.sprintf "R %d %d %d\n" ev.pid msg_id src))
    (all_events t)

let to_channel t oc = iter_lines t (output_string oc)

let to_string t =
  let b = Buffer.create 4096 in
  iter_lines t (Buffer.add_string b);
  Buffer.contents b

let of_channel ic =
  let line () = try Some (input_line ic) with End_of_file -> None in
  (match line () with
  | Some l when l = magic -> ()
  | Some l -> failwith (Printf.sprintf "Trace.of_channel: bad header %S" l)
  | None -> failwith "Trace.of_channel: empty input");
  let t =
    match line () with
    | Some l -> begin
      try Scanf.sscanf l "n %d" (fun n -> create ~n)
      with Scanf.Scan_failure _ | Failure _ ->
        failwith "Trace.of_channel: missing process count"
    end
    | None -> failwith "Trace.of_channel: missing process count"
  in
  (* loaded traces may carry ids from other schemes (hand-written files);
     push every counter past them so fresh ids never collide *)
  let bump_past msg_id =
    let base = (msg_id / t.n) + 1 in
    for p = 0 to t.n - 1 do
      if t.next_msg_id.(p) < base then t.next_msg_id.(p) <- base
    done
  in
  let parse l =
    try
      match l.[0] with
      | 'C' -> Scanf.sscanf l "C %d %d" (fun pid index ->
            record_checkpoint t ~pid ~index)
      | 'S' ->
        Scanf.sscanf l "S %d %d %d" (fun pid msg_id dst ->
            record_send t ~pid ~msg_id ~dst;
            bump_past msg_id)
      | 'R' ->
        Scanf.sscanf l "R %d %d %d" (fun pid msg_id src ->
            record_receive t ~pid ~msg_id ~src)
      | _ -> failwith (Printf.sprintf "Trace.of_channel: bad line %S" l)
    with Scanf.Scan_failure _ | Invalid_argument _ ->
      failwith (Printf.sprintf "Trace.of_channel: bad line %S" l)
  in
  let rec loop () =
    match line () with
    | None -> ()
    | Some "" -> loop ()
    | Some l ->
      parse l;
      loop ()
  in
  loop ();
  t

let save t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel t oc)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)

(* Builder helpers *)

let init_with_initial_checkpoints ~n =
  let t = create ~n in
  for pid = 0 to n - 1 do
    record_checkpoint t ~pid ~index:0
  done;
  t

let checkpoint t pid =
  let index = last_checkpoint_index t ~pid + 1 in
  record_checkpoint t ~pid ~index

let send t ~src ~dst =
  let msg_id = fresh_msg_id t ~pid:src in
  record_send t ~pid:src ~msg_id ~dst;
  msg_id

let receive t ~msg_id ~src ~dst = record_receive t ~pid:dst ~msg_id ~src

let message t ~src ~dst =
  let msg_id = send t ~src ~dst in
  receive t ~msg_id ~src ~dst
