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

(* Recording and reading an event are per-event paths; rdt_lint holds the
   codec to alloc/*.  [grow], which allocates the chunks, stays outside. *)
[@@@lint.zero_alloc_hot
  "record" "append" "put_head" "put_other" "next" "put_varint" "varint_at"
  "zigzag" "unzigzag"]

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

(* Process [p]'s log is a run of byte chunks.  Every event starts with a
   header byte: a 2-bit kind below [seq delta - 1], the delta from [p]'s
   previous event; a delta of 64 or more writes 63 there and a varint
   [delta - 64] after the header.  What follows depends on the kind:
   - kind 0, a checkpoint at the predicted index (the last one + 1):
     nothing;
   - kind 1, a send at the predicted id (the last send's + [n], the next
     id {!fresh_msg_id} mints): a varint peer;
   - kind 2, a receive whose id is [k * n + src]: one varint,
     [zigzag (k - the previous receive's k) lsl peer_bits lor src];
   - kind 3, any other event (hand-written ids, id jumps after
     {!restore_msg_ids}, a send after a rollback erased the sends before
     it, whose ids are never reused): the varint
     [peer lsl 2 lor tag] (the low bits of the packed code), then the
     zigzagged payload delta from the value its tag predicts, where a
     receive predicts [k * n] for the previous receive's [k].
   An event takes about 2.1 bytes in an n = 8 simulated run.  An event
   never straddles two chunks, and each chunk's head holds the decoder
   state at its start, so a chunk decodes on its own: a truncation scans
   back chunk by chunk from the tail.  Only chunk 0 grows by doubling;
   full chunks are larger than the minor heap's object limit and go
   straight to the major heap. *)
let chunk_bytes = 4096
let first_chunk_bytes = 64

let kind_bits = 2
let kind_mask = (1 lsl kind_bits) - 1
let kind_ckpt = 0
let kind_send = 1
let kind_recv = 2
let kind_other = 3

(* the largest [seq delta - 1] the header holds; 63 there means a varint
   follows *)
let head_dseq = 63

(* the header and three varints of at most 9 bytes each: a zigzagged
   delta stays below [2^62] since payloads and references stay below
   [2^61] *)
let max_event_bytes = 28

(* a chunk's head: the events before it, then the decoder state at its
   start — the previous event's [seq], the last checkpoint index, the
   last send id and the last receive's [k] *)
let head_words = 5
let h_count = 0
let h_seq = 1
let h_ckpt = 2
let h_send = 3
let h_recv = 4

type log = {
  mutable chunks : Bytes.t array;  (* slots past [nchunks] are empty *)
  mutable heads : int array;  (* [head_words] per chunk *)
  mutable nchunks : int;
  mutable fill : int;  (* bytes used in the last chunk *)
  mutable count : int;
  (* the encoder state after the last event: its [seq], the last
     checkpoint index ([-1] if none), send id and receive id's [k]
     ([id / n]) *)
  mutable seq : int;
  mutable ckpt : int;
  mutable send : int;
  mutable recv : int;
}

let new_log ~n ~pid =
  {
    chunks = [||];
    heads = [||];
    nchunks = 0;
    fill = 0;
    count = 0;
    seq = -1;
    ckpt = -1;
    send = pid - n;
    recv = 0;
  }

type t = {
  n : int;
  peer_bits : int;
  max_payload : int;
  logs : log array;
  mutable next_seq : int;
  (* per-process msg-id counters: id = k * n + pid, so ids are unique and
     a pure function of the sender's own history — no global counter whose
     value would depend on cross-process interleaving *)
  next_msg_id : int array;
  mutable recording : bool;
  (* a muted trace was handed an event it did not store: the logs are no
     longer the whole execution, and the readers refuse them *)
  mutable dropped : bool;
  mutable on_event : (View.t -> unit) list;
  mutable on_truncate : (pid:int -> unit) list;
  (* the view handed to [on_event] subscribers, refilled per event *)
  view : View.t;
}

let create ~n =
  if n <= 0 then invalid_arg "Trace.create: n must be positive";
  let peer_bits = width_of (n - 1) in
  {
    n;
    peer_bits;
    max_payload = max_int lsr (peer_bits + tag_bits);
    logs = Array.init n (fun pid -> new_log ~n ~pid);
    next_seq = 0;
    next_msg_id = Array.make n 0;
    recording = true;
    dropped = false;
    on_event = [];
    on_truncate = [];
    view = View.make ~peer_bits;
  }

let n t = t.n
let set_recording t b = t.recording <- b
let on_event t f = t.on_event <- f :: t.on_event
let on_truncate t f = t.on_truncate <- f :: t.on_truncate

let pack t tag ~peer ~payload =
  (payload lsl (t.peer_bits + tag_bits)) lor (peer lsl tag_bits)
  lor code_of_tag tag

let rec fire v = function
  | [] -> ()
  | f :: rest ->
    f v;
    fire v rest

(* Hands one recorded event to the subscribers through the trace's view. *)
let notify t ~pid ~seq code =
  match t.on_event with
  | [] -> ()
  | subs ->
    let v = t.view in
    v.seq <- seq;
    v.pid <- pid;
    v.code <- code;
    fire v subs

(* Codec *)

let zigzag d = (d lsl 1) lxor (d asr 62)
let unzigzag z = (z lsr 1) lxor -(z land 1)

(* Writes [x >= 0] at [pos]; returns the position after it. *)
let rec put_varint b pos x =
  if x < 0x80 then begin
    Bytes.set_uint8 b pos x;
    pos + 1
  end
  else begin
    Bytes.set_uint8 b pos (x land 0x7f lor 0x80);
    put_varint b (pos + 1) (x lsr 7)
  end

let write_head log c =
  let h = head_words * c in
  log.heads.(h + h_count) <- log.count;
  log.heads.(h + h_seq) <- log.seq;
  log.heads.(h + h_ckpt) <- log.ckpt;
  log.heads.(h + h_send) <- log.send;
  log.heads.(h + h_recv) <- log.recv

(* Makes room for one more event at the tail of [log]. *)
let grow log =
  let c = log.nchunks in
  if c = 0 then begin
    log.chunks <- [| Bytes.create first_chunk_bytes |];
    log.heads <- Array.make head_words 0;
    log.nchunks <- 1;
    write_head log 0
  end
  else if c = 1 && Bytes.length log.chunks.(0) < chunk_bytes then begin
    (* only chunk 0 is ever copied, and never more than [chunk_bytes] *)
    let b = Bytes.create (min chunk_bytes (2 * Bytes.length log.chunks.(0))) in
    Bytes.blit log.chunks.(0) 0 b 0 log.fill;
    log.chunks.(0) <- b
  end
  else begin
    if c = Array.length log.chunks then begin
      let dir = Array.make (2 * c) Bytes.empty in
      Array.blit log.chunks 0 dir 0 c;
      log.chunks <- dir;
      let heads = Array.make (2 * c * head_words) 0 in
      Array.blit log.heads 0 heads 0 (c * head_words);
      log.heads <- heads
    end;
    log.chunks.(c) <- Bytes.create chunk_bytes;
    log.nchunks <- c + 1;
    log.fill <- 0;
    write_head log c
  end

(* Writes the header byte of an event of [kind] that comes [dseq >= 1]
   after its log's previous one; returns the position after it. *)
let put_head b pos kind dseq =
  if dseq <= head_dseq then begin
    Bytes.set_uint8 b pos (((dseq - 1) lsl kind_bits) lor kind);
    pos + 1
  end
  else begin
    Bytes.set_uint8 b pos ((head_dseq lsl kind_bits) lor kind);
    put_varint b (pos + 1) (dseq - head_dseq - 1)
  end

(* Writes a kind-3 event's body: the low bits of its code, then its
   payload's delta from the value its tag predicts. *)
let put_other b pos tag ~peer delta =
  let pos = put_varint b pos ((peer lsl tag_bits) lor code_of_tag tag) in
  put_varint b pos (zigzag delta)

let append t log tag ~peer ~payload ~seq =
  if log.nchunks = 0
     || log.fill + max_event_bytes > Bytes.length log.chunks.(log.nchunks - 1)
  then grow log;
  let b = log.chunks.(log.nchunks - 1) in
  let dseq = seq - log.seq in
  let pos = log.fill in
  log.fill <-
    begin
      match tag with
      | Checkpoint ->
        let d = payload - (log.ckpt + 1) in
        log.ckpt <- payload;
        if d = 0 then put_head b pos kind_ckpt dseq
        else put_other b (put_head b pos kind_other dseq) tag ~peer d
      | Send ->
        let d = payload - (log.send + t.n) in
        log.send <- payload;
        if d = 0 then put_varint b (put_head b pos kind_send dseq) peer
        else put_other b (put_head b pos kind_other dseq) tag ~peer d
      | Receive ->
        let k = payload / t.n in
        let prev = log.recv in
        log.recv <- k;
        if payload - (k * t.n) = peer then
          put_varint b
            (put_head b pos kind_recv dseq)
            ((zigzag (k - prev) lsl t.peer_bits) lor peer)
        else
          put_other b (put_head b pos kind_other dseq) tag ~peer
            (payload - (prev * t.n))
    end;
  log.seq <- seq;
  log.count <- log.count + 1

(* A decoding cursor over one log: the state after the last event it
   decoded, and that event's packed code. *)
type cursor = {
  log : log;
  mutable chunk : int;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable left : int;  (* events left in [chunk] *)
  mutable dseq : int;
  mutable dckpt : int;
  mutable dsend : int;
  mutable drecv : int;
  mutable code : int;
}

let chunk_events log c =
  let next =
    if c + 1 < log.nchunks then log.heads.((head_words * (c + 1)) + h_count)
    else log.count
  in
  next - log.heads.((head_words * c) + h_count)

(* Places [k] at the start of chunk [c], in the state of its head. *)
let seek k c =
  let log = k.log and h = head_words * c in
  k.chunk <- c;
  k.buf <- log.chunks.(c);
  k.pos <- 0;
  k.left <- chunk_events log c;
  k.dseq <- log.heads.(h + h_seq);
  k.dckpt <- log.heads.(h + h_ckpt);
  k.dsend <- log.heads.(h + h_send);
  k.drecv <- log.heads.(h + h_recv)

(* A cursor before the first event of [log]. *)
let cursor log =
  let k =
    {
      log;
      chunk = 0;
      buf = Bytes.empty;
      pos = 0;
      left = 0;
      dseq = 0;
      dckpt = 0;
      dsend = 0;
      drecv = 0;
      code = 0;
    }
  in
  if log.nchunks > 0 then seek k 0;
  k

let rec varint_at k x shift =
  let byte = Bytes.get_uint8 k.buf k.pos in
  k.pos <- k.pos + 1;
  let x = x lor ((byte land 0x7f) lsl shift) in
  if byte < 0x80 then x else varint_at k x (shift + 7)

(* Decodes the event after [k]'s, moving to the next chunk at the end of
   this one; there must be one.  A chunk's head is the state its previous
   chunk ends in, so moving on only resets the position. *)
let next t k =
  if k.left = 0 then begin
    k.chunk <- k.chunk + 1;
    k.buf <- k.log.chunks.(k.chunk);
    k.pos <- 0;
    k.left <- chunk_events k.log k.chunk
  end;
  k.left <- k.left - 1;
  let head = Bytes.get_uint8 k.buf k.pos in
  k.pos <- k.pos + 1;
  let d = head lsr kind_bits in
  k.dseq <- k.dseq + 1 + (if d < head_dseq then d else d + varint_at k 0 0);
  let shift = t.peer_bits + tag_bits in
  let kind = head land kind_mask in
  if kind = kind_ckpt then begin
    let p = k.dckpt + 1 in
    k.dckpt <- p;
    k.code <- p lsl shift
  end
  else if kind = kind_send then begin
    let peer = varint_at k 0 0 in
    let p = k.dsend + t.n in
    k.dsend <- p;
    k.code <- (p lsl shift) lor (peer lsl tag_bits) lor code_of_tag Send
  end
  else if kind = kind_recv then begin
    let v = varint_at k 0 0 in
    let src = v land ((1 lsl t.peer_bits) - 1) in
    let r = k.drecv + unzigzag (v lsr t.peer_bits) in
    k.drecv <- r;
    k.code <-
      (((r * t.n) + src) lsl shift) lor (src lsl tag_bits) lor code_of_tag Receive
  end
  else begin
    let low = varint_at k 0 0 in
    let delta = unzigzag (varint_at k 0 0) in
    let payload =
      match tag_of_code low with
      | Checkpoint ->
        let p = k.dckpt + 1 + delta in
        k.dckpt <- p;
        p
      | Send ->
        let p = k.dsend + t.n + delta in
        k.dsend <- p;
        p
      | Receive ->
        let p = (k.drecv * t.n) + delta in
        k.drecv <- p / t.n;
        p
    in
    k.code <- (payload lsl shift) lor low
  end

(* Appends one event to [pid]'s log; a rejected event stores nothing. *)
let store t ~pid tag ~peer ~payload ~seq =
  if pid < 0 || pid >= t.n then invalid_arg "Trace.record: bad pid";
  if peer < 0 || peer >= t.n then invalid_arg "Trace.record: bad peer";
  if payload < 0 || payload > t.max_payload then
    invalid_arg "Trace.record: payload does not fit the packed code";
  append t t.logs.(pid) tag ~peer ~payload ~seq

(* A muted trace (default runs, benchmarks, live nodes) checks and stores
   nothing and only notes that it dropped an event, but still numbers the
   event and hands it to the subscribers: with none, it does no other
   work. *)
let record t ~pid tag ~peer ~payload =
  let seq = t.next_seq in
  if t.recording then store t ~pid tag ~peer ~payload ~seq
  else t.dropped <- true;
  t.next_seq <- seq + 1;
  notify t ~pid ~seq (pack t tag ~peer ~payload)

let record_checkpoint t ~pid ~index =
  record t ~pid Checkpoint ~peer:0 ~payload:index

let record_send t ~pid ~msg_id ~dst =
  record t ~pid Send ~peer:dst ~payload:msg_id

let record_receive t ~pid ~msg_id ~src =
  record t ~pid Receive ~peer:src ~payload:msg_id

let fresh_msg_id t ~pid =
  let k = t.next_msg_id.(pid) in
  t.next_msg_id.(pid) <- k + 1;
  (k * t.n) + pid

let restore_msg_ids t ~pid ~count =
  if count > t.next_msg_id.(pid) then t.next_msg_id.(pid) <- count

let last_checkpoint_index t ~pid = t.logs.(pid).ckpt
let length t = Array.fold_left (fun acc log -> acc + log.count) 0 t.logs

(* Readers *)

let check_whole t ~reader =
  if t.dropped then
    invalid_arg
      (reader
     ^ ": the trace dropped events while muted, so it is not the whole \
        execution")

(* A k-way merge by [seq]: [heap] is a binary min-heap of the pids whose
   log still has events, keyed by the [seq] of the event their cursor
   last decoded, which is the next to deliver. *)
let iter t f =
  check_whole t ~reader:"Trace.iter";
  let v = View.make ~peer_bits:t.peer_bits in
  let cursors = Array.map cursor t.logs in
  let left = Array.map (fun log -> log.count) t.logs in
  let heap = Array.make t.n 0 in
  let size = ref 0 in
  let head p = cursors.(p).dseq in
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
    if left.(p) > 0 then begin
      next t cursors.(p);
      heap.(!size) <- p;
      incr size
    end
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift_down i
  done;
  while !size > 0 do
    let p = heap.(0) in
    let k = cursors.(p) in
    v.View.seq <- k.dseq;
    v.View.pid <- p;
    v.View.code <- k.code;
    f v;
    left.(p) <- left.(p) - 1;
    if left.(p) = 0 then begin
      decr size;
      heap.(0) <- heap.(!size)
    end
    else next t k;
    sift_down 0
  done

(* Cuts [log] just after the last [Checkpoint index] event.  Varints only
   decode forwards, so each chunk, from the tail back, is decoded from its
   head, remembering the last match; the first chunk with one holds the
   cut, and nothing before it is read. *)
let cut_at_checkpoint t log ~index =
  let target = pack t Checkpoint ~peer:0 ~payload:index in
  let k = cursor log in
  let rec scan c =
    if c < 0 then false
    else begin
      seek k c;
      let found = ref (-1) and fill = ref 0 in
      let seq = ref 0 and send = ref 0 and recv = ref 0 in
      for i = 1 to k.left do
        next t k;
        if k.code = target then begin
          found := i;
          fill := k.pos;
          seq := k.dseq;
          send := k.dsend;
          recv := k.drecv
        end
      done;
      if !found < 0 then scan (c - 1)
      else begin
        for d = c + 1 to log.nchunks - 1 do
          log.chunks.(d) <- Bytes.empty
        done;
        log.nchunks <- c + 1;
        log.fill <- !fill;
        log.count <- log.heads.((head_words * c) + h_count) + !found;
        log.seq <- !seq;
        log.ckpt <- index;
        log.send <- !send;
        log.recv <- !recv;
        true
      end
    end
  in
  scan (log.nchunks - 1)

let truncate_to_checkpoint t ~pid ~index =
  (* a muted trace recorded nothing, so there is nothing to cut *)
  if t.recording then begin
    let log = t.logs.(pid) in
    if index < 0 || index > t.max_payload || not (cut_at_checkpoint t log ~index)
    then invalid_arg "Trace.truncate_to_checkpoint: checkpoint not in trace";
    List.iter (fun f -> f ~pid) t.on_truncate
  end

(* Serialization *)

let magic = "rdtgc-trace 1"

(* [x >= 0] in decimal, as [%d] prints it, without a format string *)
let rec add_int b x =
  if x >= 10 then add_int b (x / 10);
  Buffer.add_char b (Char.chr (Char.code '0' + (x mod 10)))

(* the one formatter: appends the text to [b] and hands [b] to [flush]
   each time it passes 64 KiB, and once at the end *)
let write_text t b flush =
  let field x =
    Buffer.add_char b ' ';
    add_int b x
  in
  Buffer.add_string b magic;
  Buffer.add_string b "\nn";
  field t.n;
  Buffer.add_char b '\n';
  iter t (fun v ->
      (match View.tag v with
      | Checkpoint -> Buffer.add_char b 'C'
      | Send -> Buffer.add_char b 'S'
      | Receive -> Buffer.add_char b 'R');
      field (View.pid v);
      field (View.payload v);
      (match View.tag v with
      | Checkpoint -> ()
      | Send | Receive -> field (View.peer v));
      Buffer.add_char b '\n';
      if Buffer.length b >= 65536 then flush b);
  flush b

let to_string t =
  check_whole t ~reader:"Trace.to_string";
  let b = Buffer.create 4096 in
  write_text t b ignore;
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
  (* the largest id a loaded send carries ([-1] if none) *)
  let top_send = ref (-1) in
  let bad_line l = failwith (Printf.sprintf "Trace.of_channel: bad line %S" l) in
  let parse l =
    try
      match l.[0] with
      | 'C' -> Scanf.sscanf l "C %d %d" (fun pid index ->
            record_checkpoint t ~pid ~index)
      | 'S' ->
        Scanf.sscanf l "S %d %d %d" (fun pid msg_id dst ->
            record_send t ~pid ~msg_id ~dst;
            if msg_id > !top_send then top_send := msg_id)
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
  (* loaded traces may carry ids from other schemes (hand-written files);
     push every counter past the largest so fresh ids never collide *)
  if !top_send >= 0 then
    for pid = 0 to t.n - 1 do
      restore_msg_ids t ~pid ~count:((!top_send / t.n) + 1)
    done;
  t

let save t path =
  check_whole t ~reader:"Trace.save";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      write_text t (Buffer.create 65536) (fun b ->
          Buffer.output_buffer oc b;
          Buffer.clear b))

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
