module Stamp = Rdt_sim.Stamp

type tag = Checkpoint | Send | Receive

(* An event's packed code: the payload above the peer above a 2-bit tag,
   [payload lsl (peer_bits + 2) lor peer lsl 2 lor tag], where [peer_bits]
   is the width of [n - 1] (see [pack]).  A checkpoint's peer is 0, so
   one int compare finds checkpoint [i] in a log. *)
let tag_bits = 2
let tag_mask = (1 lsl tag_bits) - 1
let code_of_tag = function Checkpoint -> 0 | Send -> 1 | Receive -> 2

let tag_of_code code =
  match code land tag_mask with 0 -> Checkpoint | 1 -> Send | _ -> Receive

let rec width_of m = if m = 0 then 0 else 1 + width_of (m lsr 1)

module View = struct
  type t = {
    mutable seq : int;
    mutable pid : int;
    mutable code : int;
    peer_bits : int;
  }

  let make ~peer_bits = { seq = -1; pid = 0; code = 0; peer_bits }
  let seq v = v.seq
  let pid v = v.pid
  let tag v = tag_of_code v.code
  let peer v = (v.code lsr tag_bits) land ((1 lsl v.peer_bits) - 1)
  let payload v = v.code lsr (v.peer_bits + tag_bits)
end

(* One process's log as two [int] columns, [seq] and the packed code,
   each stored in chunks of [chunk_size] entries behind a directory: an
   append never copies what is already recorded, and a log holds at most
   one chunk of slack.  Chunk 0 alone starts small and doubles up to
   [chunk_size] (a copy of at most [chunk_size] entries), so the short
   logs of tests, figures and live nodes stay small.  Full chunks are
   larger than the minor heap's object limit and go straight to the
   major heap.  [2^12] rather than larger keeps the slack of a wide run
   small ([n = 256] processes leave at most 16 MB). *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let first_chunk = 16

type log = {
  mutable len : int;
  mutable cap : int;
  mutable nchunks : int;
  mutable seqs : int array array;  (* slots past [nchunks] are [[||]] *)
  mutable codes : int array array;
}

let empty_log () = { len = 0; cap = 0; nchunks = 0; seqs = [||]; codes = [||] }
let log_seq log i = log.seqs.(i lsr chunk_bits).(i land chunk_mask)
let log_code log i = log.codes.(i lsr chunk_bits).(i land chunk_mask)
let log_set_seq log i seq = log.seqs.(i lsr chunk_bits).(i land chunk_mask) <- seq

let log_grow log =
  if log.nchunks = 0 then begin
    log.seqs <- [| Array.make first_chunk 0 |];
    log.codes <- [| Array.make first_chunk 0 |];
    log.nchunks <- 1;
    log.cap <- first_chunk
  end
  else if log.cap < chunk_size then begin
    let cap = min chunk_size (2 * log.cap) in
    let extend a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 log.len;
      b
    in
    log.seqs.(0) <- extend log.seqs.(0);
    log.codes.(0) <- extend log.codes.(0);
    log.cap <- cap
  end
  else begin
    let c = log.nchunks in
    if c = Array.length log.seqs then begin
      let dir a =
        let b = Array.make (2 * c) [||] in
        Array.blit a 0 b 0 c;
        b
      in
      log.seqs <- dir log.seqs;
      log.codes <- dir log.codes
    end;
    log.seqs.(c) <- Array.make chunk_size 0;
    log.codes.(c) <- Array.make chunk_size 0;
    log.nchunks <- c + 1;
    log.cap <- log.cap + chunk_size
  end

let log_push log ~seq code =
  let i = log.len in
  if i = log.cap then log_grow log;
  log.seqs.(i lsr chunk_bits).(i land chunk_mask) <- seq;
  log.codes.(i lsr chunk_bits).(i land chunk_mask) <- code;
  log.len <- i + 1

(* drops whole chunks past the new end, so a truncated log keeps at most
   one chunk of slack too *)
let log_truncate log len =
  log.len <- len;
  if log.nchunks > 1 then begin
    let keep = if len = 0 then 1 else ((len - 1) lsr chunk_bits) + 1 in
    for c = keep to log.nchunks - 1 do
      log.seqs.(c) <- [||];
      log.codes.(c) <- [||]
    done;
    log.nchunks <- keep;
    log.cap <- keep * chunk_size
  end

(* Pooled buffer of not-yet-sequenced records for one process: the engine
   event's key [(time, u, v)] plus [k], the rank of the record among those
   made by the same process under the same key (one engine event can
   record several trace events), and the record's position in the
   process's log, whose [seq] slot {!finalize} fills.  Struct-of-arrays
   rather than a vector of stamp records, so a sharded run buffers each
   record by writing five slots instead of allocating a record and boxing
   a float — per-record stamping was a measurable share of the
   multi-shard allocation storm (DESIGN.md §13). *)
type pending = {
  mutable p_len : int;
  mutable p_time : float array;
  mutable p_u : int array;
  mutable p_v : int array;
  mutable p_k : int array;
  mutable p_pos : int array;
}

type t = {
  n : int;
  peer_bits : int;
  max_payload : int;
  logs : log array;
  last_ckpt : int array;  (* per pid: index of the log's last checkpoint *)
  mutable next_seq : int;
  (* per-process msg-id counters: id = k * n + pid, so ids are unique and
     a pure function of the sender's own history — no global counter whose
     value would depend on cross-process interleaving *)
  next_msg_id : int array;
  mutable recording : bool;
  mutable on_event : (View.t -> unit) list;
  mutable on_truncate : (pid:int -> unit) list;
  (* the view handed to [on_event] subscribers, refilled per event *)
  view : View.t;
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
   calls) writes is striped by the recording process: log columns,
   last-checkpoint and last-stamp rows, msg-id counters, stamp cells and
   pending buffers are all per pid, and a pid only executes on its owning
   shard's domain.  [finalize], [notify] and the readers below run on one
   domain — at a barrier, after the run, or on the sequential path — and
   are deliberately not scopes. *)
[@@@lint.domain_scope
  "record:pid" "log_push:log" "log_grow:log" "pending_push:p"
  "pending_grow:p" "fresh_msg_id:pid"]

let fresh_pending () =
  { p_len = 0; p_time = [||]; p_u = [||]; p_v = [||]; p_k = [||]; p_pos = [||] }

let create ~n =
  if n <= 0 then invalid_arg "Trace.create: n must be positive";
  let peer_bits = width_of (n - 1) in
  {
    n;
    peer_bits;
    max_payload = max_int lsr (peer_bits + tag_bits);
    logs = Array.init n (fun _ -> empty_log ());
    last_ckpt = Array.make n (-1);
    next_seq = 0;
    next_msg_id = Array.make n 0;
    recording = true;
    on_event = [];
    on_truncate = [];
    view = View.make ~peer_bits;
    order_source = None;
    stamp_cells = Array.init n (fun _ -> Stamp.create ());
    pending = Array.init n (fun _ -> fresh_pending ());
    last_time = Array.make n nan;
    last_u = Array.make n 0;
    last_v = Array.make n 0;
    last_k = Array.make n 0;
  }

let n t = t.n
let max_payload t = t.max_payload
let set_recording t b = t.recording <- b
let on_event t f = t.on_event <- f :: t.on_event
let on_truncate t f = t.on_truncate <- f :: t.on_truncate
let set_order_source t f = t.order_source <- Some f

let pack t tag ~peer ~payload =
  (payload lsl (t.peer_bits + tag_bits)) lor (peer lsl tag_bits)
  lor code_of_tag tag

let rec fire v = function
  | [] -> ()
  | f :: rest ->
    f v;
    fire v rest

(* Hands one sequenced event to the subscribers through the trace's view.
   Reached only from single-domain paths: the unsharded branch of
   [record], and [finalize]. *)
let notify t ~pid ~seq code =
  match t.on_event with
  | [] -> ()
  | subs ->
    let v = t.view in
    v.seq <- seq;
    v.pid <- pid;
    v.code <- code;
    fire v subs

let pending_grow p =
  let cap = Array.length p.p_time in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let p_time = Array.make ncap 0.0 in
  let p_u = Array.make ncap 0 in
  let p_v = Array.make ncap 0 in
  let p_k = Array.make ncap 0 in
  let p_pos = Array.make ncap 0 in
  Array.blit p.p_time 0 p_time 0 p.p_len;
  Array.blit p.p_u 0 p_u 0 p.p_len;
  Array.blit p.p_v 0 p_v 0 p.p_len;
  Array.blit p.p_k 0 p_k 0 p.p_len;
  Array.blit p.p_pos 0 p_pos 0 p.p_len;
  p.p_time <- p_time;
  p.p_u <- p_u;
  p.p_v <- p_v;
  p.p_k <- p_k;
  p.p_pos <- p_pos

let pending_push p ~time ~u ~v ~k ~pos =
  let len = p.p_len in
  if len = Array.length p.p_time then pending_grow p;
  p.p_time.(len) <- time;
  p.p_u.(len) <- u;
  p.p_v.(len) <- v;
  p.p_k.(len) <- k;
  p.p_pos.(len) <- pos;
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
    let f_pid = Array.make total 0 in
    let f_pos = Array.make total 0 in
    let at = ref 0 in
    Array.iteri
      (fun pid p ->
        Array.blit p.p_time 0 f_time !at p.p_len;
        Array.blit p.p_u 0 f_u !at p.p_len;
        Array.blit p.p_v 0 f_v !at p.p_len;
        Array.blit p.p_k 0 f_k !at p.p_len;
        Array.fill f_pid !at p.p_len pid;
        Array.blit p.p_pos 0 f_pos !at p.p_len;
        at := !at + p.p_len;
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
            if c <> 0 then c else Int.compare f_pid.(a) f_pid.(b)
    in
    Array.sort compare_idx perm;
    Array.iter
      (fun i ->
        let pid = f_pid.(i) and pos = f_pos.(i) in
        let log = t.logs.(pid) in
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        log_set_seq log pos seq;
        notify t ~pid ~seq (log_code log pos))
      perm
  end

let record t ~pid tag ~peer ~payload =
  if pid < 0 || pid >= t.n then invalid_arg "Trace.record: bad pid";
  if peer < 0 || peer >= t.n then invalid_arg "Trace.record: bad peer";
  if payload < 0 || payload > t.max_payload then
    invalid_arg "Trace.record: payload does not fit the packed code";
  let code = pack t tag ~peer ~payload in
  let log = t.logs.(pid) in
  (match tag with
  | Checkpoint -> t.last_ckpt.(pid) <- payload
  | Send | Receive -> ());
  match t.order_source with
  | None ->
    let seq = t.next_seq in
    (t.next_seq <- seq + 1)
    [@lint.single_writer
      "no order source means sequential or inline dispatch: a single \
       domain records (sharded runs install a source and take the \
       other branch)"];
    log_push log ~seq code;
    notify t ~pid ~seq code
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
    let pos = log.len in
    log_push log ~seq:(-1) code;
    pending_push t.pending.(pid) ~time:tm ~u ~v ~k ~pos

(* the [recording] test sits here so a muted trace (benchmarks, long soak
   runs) does no work at all *)
let record_checkpoint t ~pid ~index =
  if t.recording then record t ~pid Checkpoint ~peer:0 ~payload:index

let record_send t ~pid ~msg_id ~dst =
  if t.recording then record t ~pid Send ~peer:dst ~payload:msg_id

let record_receive t ~pid ~msg_id ~src =
  if t.recording then record t ~pid Receive ~peer:src ~payload:msg_id

let fresh_msg_id t ~pid =
  let k = t.next_msg_id.(pid) in
  t.next_msg_id.(pid) <- k + 1;
  (k * t.n) + pid

let restore_msg_ids t ~pid ~count =
  if count > t.next_msg_id.(pid) then t.next_msg_id.(pid) <- count

let last_checkpoint_index t ~pid = t.last_ckpt.(pid)
let length t = Array.fold_left (fun acc log -> acc + log.len) 0 t.logs

(* Readers *)

let iter_pid t ~pid f =
  finalize t;
  let log = t.logs.(pid) in
  let v = View.make ~peer_bits:t.peer_bits in
  v.View.pid <- pid;
  for i = 0 to log.len - 1 do
    v.View.seq <- log_seq log i;
    v.View.code <- log_code log i;
    f v
  done

(* A k-way merge by [seq]: [heap] is a binary min-heap of the pids whose
   log still has events, keyed by the [seq] at their cursor. *)
let iter t f =
  finalize t;
  let v = View.make ~peer_bits:t.peer_bits in
  let cursor = Array.make t.n 0 in
  let heap = Array.make t.n 0 in
  let size = ref 0 in
  let head p = log_seq t.logs.(p) cursor.(p) in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let r = l + 1 in
      let c = if r < !size && head heap.(r) < head heap.(l) then r else l in
      if head heap.(c) < head heap.(i) then begin
        let x = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- x;
        sift_down c
      end
    end
  in
  for p = 0 to t.n - 1 do
    if t.logs.(p).len > 0 then begin
      heap.(!size) <- p;
      incr size
    end
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift_down i
  done;
  while !size > 0 do
    let p = heap.(0) in
    let log = t.logs.(p) in
    let i = cursor.(p) in
    v.View.seq <- log_seq log i;
    v.View.pid <- p;
    v.View.code <- log_code log i;
    f v;
    cursor.(p) <- i + 1;
    if i + 1 = log.len then begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift_down 0
  done

let fold_with iter t ~init f =
  let acc = ref init in
  iter t (fun v -> acc := f !acc v);
  !acc

let fold t ~init f = fold_with iter t ~init f
let fold_pid t ~pid ~init f = fold_with (iter_pid ~pid) t ~init f

let truncate_to_checkpoint t ~pid ~index =
  (* a muted trace recorded nothing, so there is nothing to cut *)
  if t.recording then begin
    (* sequence everything first: pending records of the truncated suffix
       must reach subscribers (they happened) before the retraction does *)
    finalize t;
    let log = t.logs.(pid) in
    let missing () =
      invalid_arg "Trace.truncate_to_checkpoint: checkpoint not in trace"
    in
    if index < 0 || index > t.max_payload then missing ();
    let target = pack t Checkpoint ~peer:0 ~payload:index in
    let rec find i =
      if i < 0 then missing ()
      else if log_code log i = target then i
      else find (i - 1)
    in
    let cut = find (log.len - 1) in
    log_truncate log (cut + 1);
    t.last_ckpt.(pid) <- index;
    List.iter (fun f -> f ~pid) t.on_truncate
  end

(* Serialization *)

let magic = "rdtgc-trace 1"

(* the one formatter: hands each line, newline included, to [emit] *)
let iter_lines t emit =
  emit (magic ^ "\n");
  emit (Printf.sprintf "n %d\n" t.n);
  iter t (fun v ->
      let pid = View.pid v and payload = View.payload v in
      emit
        (match View.tag v with
        | Checkpoint -> Printf.sprintf "C %d %d\n" pid payload
        | Send -> Printf.sprintf "S %d %d %d\n" pid payload (View.peer v)
        | Receive -> Printf.sprintf "R %d %d %d\n" pid payload (View.peer v)))

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
  let bad_line l = failwith (Printf.sprintf "Trace.of_channel: bad line %S" l) in
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
      | _ -> bad_line l
    with Scanf.Scan_failure _ | Invalid_argument _ | End_of_file -> bad_line l
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
