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

module Int_column = Rdt_sim.Int_column

type t = {
  n : int;
  peer_bits : int;
  max_payload : int;
  (* process [p]'s log: two columns of one entry per event, the [seq]
     and the packed code.  An append never copies what is already
     recorded, and short logs (tests, figures, live nodes) stay small. *)
  seqs : Int_column.t array;
  codes : Int_column.t array;
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
}

let create ~n =
  if n <= 0 then invalid_arg "Trace.create: n must be positive";
  let peer_bits = width_of (n - 1) in
  {
    n;
    peer_bits;
    max_payload = max_int lsr (peer_bits + tag_bits);
    seqs = Array.init n (fun _ -> Int_column.create ());
    codes = Array.init n (fun _ -> Int_column.create ());
    last_ckpt = Array.make n (-1);
    next_seq = 0;
    next_msg_id = Array.make n 0;
    recording = true;
    on_event = [];
    on_truncate = [];
    view = View.make ~peer_bits;
  }

let n t = t.n
let max_payload t = t.max_payload
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

(* Appends one event to [pid]'s columns; a rejected event stores nothing. *)
let store t ~pid tag ~peer ~payload ~seq code =
  if pid < 0 || pid >= t.n then invalid_arg "Trace.record: bad pid";
  if peer < 0 || peer >= t.n then invalid_arg "Trace.record: bad peer";
  if payload < 0 || payload > t.max_payload then
    invalid_arg "Trace.record: payload does not fit the packed code";
  (match tag with
  | Checkpoint -> t.last_ckpt.(pid) <- payload
  | Send | Receive -> ());
  Int_column.push t.seqs.(pid) seq;
  Int_column.push t.codes.(pid) code

(* A muted trace (benchmarks, long soak runs, live nodes) checks and
   stores nothing, but still numbers the event and hands it to the
   subscribers: with none, it does no work at all. *)
let record t ~pid tag ~peer ~payload =
  let code = pack t tag ~peer ~payload in
  let seq = t.next_seq in
  if t.recording then store t ~pid tag ~peer ~payload ~seq code;
  t.next_seq <- seq + 1;
  notify t ~pid ~seq code

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

let last_checkpoint_index t ~pid = t.last_ckpt.(pid)
let length t =
  Array.fold_left (fun acc seqs -> acc + Int_column.length seqs) 0 t.seqs

(* Readers *)

let iter_pid t ~pid f =
  let seqs = t.seqs.(pid) and codes = t.codes.(pid) in
  let v = View.make ~peer_bits:t.peer_bits in
  v.View.pid <- pid;
  for i = 0 to Int_column.length seqs - 1 do
    v.View.seq <- Int_column.get seqs i;
    v.View.code <- Int_column.get codes i;
    f v
  done

(* A k-way merge by [seq]: [heap] is a binary min-heap of the pids whose
   log still has events, keyed by the [seq] at their cursor. *)
let iter t f =
  let v = View.make ~peer_bits:t.peer_bits in
  let cursor = Array.make t.n 0 in
  let heap = Array.make t.n 0 in
  let size = ref 0 in
  let head p = Int_column.get t.seqs.(p) cursor.(p) in
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
    if Int_column.length t.seqs.(p) > 0 then begin
      heap.(!size) <- p;
      incr size
    end
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift_down i
  done;
  while !size > 0 do
    let p = heap.(0) in
    let seqs = t.seqs.(p) in
    let i = cursor.(p) in
    v.View.seq <- Int_column.get seqs i;
    v.View.pid <- p;
    v.View.code <- Int_column.get t.codes.(p) i;
    f v;
    cursor.(p) <- i + 1;
    if i + 1 = Int_column.length seqs then begin
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
    let codes = t.codes.(pid) in
    let missing () =
      invalid_arg "Trace.truncate_to_checkpoint: checkpoint not in trace"
    in
    if index < 0 || index > t.max_payload then missing ();
    let target = pack t Checkpoint ~peer:0 ~payload:index in
    let rec find i =
      if i < 0 then missing ()
      else if Int_column.get codes i = target then i
      else find (i - 1)
    in
    let cut = find (Int_column.length codes - 1) in
    Int_column.truncate t.seqs.(pid) (cut + 1);
    Int_column.truncate codes (cut + 1);
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
