module Crc32 = Rdt_store.Crc32
module Trace = Rdt_ccp.Trace

(* Framing: every frame on the wire is

     u32 length | u32 crc32(payload) | payload (length bytes)

   big-endian, with [length] covering the payload only.  The payload is a
   tag byte followed by fixed-width big-endian fields: ints are i64
   (two's complement), floats are IEEE-754 bits as i64, arrays/lists are
   an i64 count followed by the elements, strings an i64 length followed
   by the bytes.  The layout is pinned by the golden-bytes test in
   test/test_wire.ml — change it only with a version bump. *)

let header_bytes = 8
let max_frame_bytes = 1 lsl 20

(* a DV has one slot per process, and no other list in a frame is
   longer: a reply carries the few trace events of one command, a
   snapshot the checkpoints RDT-LGC retains (at most n + 1) *)
let max_count = 1 lsl 16

type error =
  | Oversized of { len : int; max : int }
  | Bad_length of { len : int }
  | Crc_mismatch of { expected : int32; actual : int32 }
  | Truncated of { wanted : int; have : int }
  | Bad_tag of { tag : int }
  | Malformed of string

let pp_error ppf = function
  | Oversized { len; max } ->
    Format.fprintf ppf "frame length %d exceeds limit %d" len max
  | Bad_length { len } -> Format.fprintf ppf "garbage frame length %d" len
  | Crc_mismatch { expected; actual } ->
    Format.fprintf ppf "crc mismatch: header %08lx, payload %08lx" expected
      actual
  | Truncated { wanted; have } ->
    Format.fprintf ppf "truncated frame: wanted %d bytes, have %d" wanted have
  | Bad_tag { tag } -> Format.fprintf ppf "unknown frame tag 0x%02x" tag
  | Malformed msg -> Format.fprintf ppf "malformed frame: %s" msg

type state = {
  st_dv : int array;  (** live dependency vector *)
  st_uc : int option array;  (** RDT-LGC UC as checkpoint indices *)
  st_retained : int array;  (** retained stable indices, ascending *)
  st_app : int;  (** volatile application state *)
}

type tev =
  | T_ckpt of { index : int }
  | T_send of { msg_id : int; dst : int }
  | T_recv of { msg_id : int; src : int }

let tev_of_view ev =
  let payload = Trace.View.payload ev in
  match Trace.View.tag ev with
  | Trace.Checkpoint -> T_ckpt { index = payload }
  | Trace.Send -> T_send { msg_id = payload; dst = Trace.View.peer ev }
  | Trace.Receive -> T_recv { msg_id = payload; src = Trace.View.peer ev }

let record_tev trace ~pid = function
  | T_ckpt { index } -> Trace.record_checkpoint trace ~pid ~index
  | T_send { msg_id; dst } -> Trace.record_send trace ~pid ~msg_id ~dst
  | T_recv { msg_id; src } -> Trace.record_receive trace ~pid ~msg_id ~src

type entry = Rdt_storage.Stable_store.entry

type cmd =
  | C_checkpoint
  | C_send of { dst : int }
  | C_deliver of { src : int; msg_id : int }
  | C_drop of { src : int; msg_id : int }
  | C_flush of { epoch : int }
  | C_snapshot
  | C_rollback of { to_index : int; li : int array option }
  | C_release of { li : int array }
  | C_state
  | C_shutdown
  | C_config of {
      n : int;
      protocol : string;
      epoch : int;
      ports : int array;
      sends_ever : int;
    }

type reply =
  | R_done of { events : tev list; state : state }
  | R_snapshot of { entries : entry list; live_dv : int array }
  | R_state of { state : state }
  | R_error of { message : string }

type frame =
  | App of { epoch : int; msg_id : int; src : int; dv : int array; index : int }
  | Ident of { pid : int }
  | Hello of { pid : int; port : int; recovering : bool }
  | Cmd of { seq : int; now : float; cmd : cmd }
  | Reply of { seq : int; reply : reply }

(* --- encoding --------------------------------------------------------- *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)
let put_i64 b v = Buffer.add_int64_be b (Int64.of_int v)
let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let put_string b s =
  put_i64 b (String.length s);
  Buffer.add_string b s

let put_int_array b a =
  put_i64 b (Array.length a);
  Array.iter (fun v -> put_i64 b v) a

(* UC entries are checkpoint indices (>= 0), so -1 encodes Null *)
let put_opt_array b a =
  put_i64 b (Array.length a);
  Array.iter (fun v -> put_i64 b (match v with Some i -> i | None -> -1)) a

let put_tev b = function
  | T_ckpt { index } ->
    put_u8 b 0;
    put_i64 b index
  | T_send { msg_id; dst } ->
    put_u8 b 1;
    put_i64 b msg_id;
    put_i64 b dst
  | T_recv { msg_id; src } ->
    put_u8 b 2;
    put_i64 b msg_id;
    put_i64 b src

let put_tevs b evs =
  put_i64 b (List.length evs);
  List.iter (put_tev b) evs

let put_state b st =
  put_int_array b st.st_dv;
  put_opt_array b st.st_uc;
  put_int_array b st.st_retained;
  put_i64 b st.st_app

let put_entry b (e : entry) =
  put_i64 b e.index;
  put_int_array b e.dv;
  put_f64 b e.taken_at;
  put_i64 b e.size_bytes;
  put_i64 b e.payload

let put_cmd b = function
  | C_checkpoint -> put_u8 b 0
  | C_send { dst } ->
    put_u8 b 1;
    put_i64 b dst
  | C_deliver { src; msg_id } ->
    put_u8 b 2;
    put_i64 b src;
    put_i64 b msg_id
  | C_drop { src; msg_id } ->
    put_u8 b 3;
    put_i64 b src;
    put_i64 b msg_id
  | C_flush { epoch } ->
    put_u8 b 4;
    put_i64 b epoch
  | C_snapshot -> put_u8 b 5
  | C_rollback { to_index; li } ->
    put_u8 b 6;
    put_i64 b to_index;
    (match li with
    | None -> put_u8 b 0
    | Some li ->
      put_u8 b 1;
      put_int_array b li)
  | C_release { li } ->
    put_u8 b 7;
    put_int_array b li
  | C_state -> put_u8 b 8
  | C_shutdown -> put_u8 b 9
  | C_config { n; protocol; epoch; ports; sends_ever } ->
    put_u8 b 10;
    put_i64 b n;
    put_string b protocol;
    put_i64 b epoch;
    put_int_array b ports;
    put_i64 b sends_ever

let put_reply b = function
  | R_done { events; state } ->
    put_u8 b 0;
    put_tevs b events;
    put_state b state
  | R_snapshot { entries; live_dv } ->
    put_u8 b 1;
    put_i64 b (List.length entries);
    List.iter (put_entry b) entries;
    put_int_array b live_dv
  | R_state { state } ->
    put_u8 b 2;
    put_state b state
  | R_error { message } ->
    put_u8 b 3;
    put_string b message

let put_frame b = function
  | App { epoch; msg_id; src; dv; index } ->
    put_u8 b 0;
    put_i64 b epoch;
    put_i64 b msg_id;
    put_i64 b src;
    put_int_array b dv;
    put_i64 b index
  | Ident { pid } ->
    put_u8 b 1;
    put_i64 b pid
  | Hello { pid; port; recovering } ->
    put_u8 b 2;
    put_i64 b pid;
    put_i64 b port;
    put_u8 b (if recovering then 1 else 0)
  (* tags 3 and 4 are unassigned: they decode as [Bad_tag] *)
  | Cmd { seq; now; cmd } ->
    put_u8 b 5;
    put_i64 b seq;
    put_f64 b now;
    put_cmd b cmd
  | Reply { seq; reply } ->
    put_u8 b 6;
    put_i64 b seq;
    put_reply b reply

let frame_of_payload payload =
  let len = String.length payload in
  if len > max_frame_bytes then
    invalid_arg (Printf.sprintf "Wire.encode: frame of %d bytes" len);
  let out = Bytes.create (header_bytes + len) in
  Bytes.set_int32_be out 0 (Int32.of_int len);
  Bytes.set_int32_be out 4 (Crc32.string payload);
  Bytes.blit_string payload 0 out header_bytes len;
  out

let encode frame =
  let b = Buffer.create 128 in
  put_frame b frame;
  frame_of_payload (Buffer.contents b)

(* --- decoding --------------------------------------------------------- *)

exception Bad of error

type cursor = { buf : string; mutable pos : int; stop : int }

let need c k =
  if c.pos + k > c.stop then
    raise (Bad (Truncated { wanted = c.pos + k; have = c.stop }))

let get_u8 c =
  need c 1;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_i64 c =
  need c 8;
  let v = Int64.to_int (String.get_int64_be c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

let get_f64 c =
  need c 8;
  let v = Int64.float_of_bits (String.get_int64_be c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

let get_count c what =
  let v = get_i64 c in
  if v < 0 || v > max_count then
    raise (Bad (Malformed (Printf.sprintf "%s count %d out of range" what v)));
  v

let get_string c =
  let len = get_count c "string" in
  need c len;
  let s = String.sub c.buf c.pos len in
  c.pos <- c.pos + len;
  s

let get_int_array c =
  let len = get_count c "array" in
  Array.init len (fun _ -> get_i64 c)

let get_opt_array c =
  let len = get_count c "array" in
  Array.init len (fun _ ->
      let v = get_i64 c in
      if v < 0 then None else Some v)

let get_tev c =
  match get_u8 c with
  | 0 -> T_ckpt { index = get_i64 c }
  | 1 ->
    let msg_id = get_i64 c in
    T_send { msg_id; dst = get_i64 c }
  | 2 ->
    let msg_id = get_i64 c in
    T_recv { msg_id; src = get_i64 c }
  | t -> raise (Bad (Malformed (Printf.sprintf "trace-event tag %d" t)))

let get_tevs c =
  let len = get_count c "events" in
  List.init len (fun _ -> get_tev c)

let get_state c =
  let st_dv = get_int_array c in
  let st_uc = get_opt_array c in
  let st_retained = get_int_array c in
  { st_dv; st_uc; st_retained; st_app = get_i64 c }

let get_entry c : entry =
  let index = get_i64 c in
  let dv = get_int_array c in
  let taken_at = get_f64 c in
  let size_bytes = get_i64 c in
  { index; dv; taken_at; size_bytes; payload = get_i64 c }

let get_cmd c =
  match get_u8 c with
  | 0 -> C_checkpoint
  | 1 -> C_send { dst = get_i64 c }
  | 2 ->
    let src = get_i64 c in
    C_deliver { src; msg_id = get_i64 c }
  | 3 ->
    let src = get_i64 c in
    C_drop { src; msg_id = get_i64 c }
  | 4 -> C_flush { epoch = get_i64 c }
  | 5 -> C_snapshot
  | 6 ->
    let to_index = get_i64 c in
    let li =
      match get_u8 c with
      | 0 -> None
      | 1 -> Some (get_int_array c)
      | t -> raise (Bad (Malformed (Printf.sprintf "li presence byte %d" t)))
    in
    C_rollback { to_index; li }
  | 7 -> C_release { li = get_int_array c }
  | 8 -> C_state
  | 9 -> C_shutdown
  | 10 ->
    let n = get_i64 c in
    let protocol = get_string c in
    let epoch = get_i64 c in
    let ports = get_int_array c in
    C_config { n; protocol; epoch; ports; sends_ever = get_i64 c }
  | t -> raise (Bad (Malformed (Printf.sprintf "command tag %d" t)))

let get_reply c =
  match get_u8 c with
  | 0 ->
    let events = get_tevs c in
    R_done { events; state = get_state c }
  | 1 ->
    let count = get_count c "entries" in
    let entries = List.init count (fun _ -> get_entry c) in
    R_snapshot { entries; live_dv = get_int_array c }
  | 2 -> R_state { state = get_state c }
  | 3 -> R_error { message = get_string c }
  | t -> raise (Bad (Malformed (Printf.sprintf "reply tag %d" t)))

let get_frame c =
  match get_u8 c with
  | 0 ->
    let epoch = get_i64 c in
    let msg_id = get_i64 c in
    let src = get_i64 c in
    let dv = get_int_array c in
    App { epoch; msg_id; src; dv; index = get_i64 c }
  | 1 -> Ident { pid = get_i64 c }
  | 2 ->
    let pid = get_i64 c in
    let port = get_i64 c in
    Hello { pid; port; recovering = get_u8 c <> 0 }
  | 5 ->
    let seq = get_i64 c in
    let now = get_f64 c in
    Cmd { seq; now; cmd = get_cmd c }
  | 6 ->
    let seq = get_i64 c in
    Reply { seq; reply = get_reply c }
  | tag -> raise (Bad (Bad_tag { tag }))

type header = { h_len : int; h_crc : int32 }

let decode_header buf ~pos ~len =
  if len < header_bytes then Error (Truncated { wanted = header_bytes; have = len })
  else begin
    let raw = Int32.to_int (Bytes.get_int32_be buf pos) in
    (* a negative u32 read as int32 surfaces as < 0: garbage, not merely big *)
    if raw < 0 then Error (Bad_length { len = raw })
    else if raw > max_frame_bytes then
      Error (Oversized { len = raw; max = max_frame_bytes })
    else Ok { h_len = raw; h_crc = Bytes.get_int32_be buf (pos + 4) }
  end

let decode_body header buf ~pos ~len =
  if len < header.h_len then
    Error (Truncated { wanted = header.h_len; have = len })
  else begin
    let actual = Crc32.bytes buf ~pos ~len:header.h_len in
    if not (Int32.equal actual header.h_crc) then
      Error (Crc_mismatch { expected = header.h_crc; actual })
    else begin
      let c =
        { buf = Bytes.sub_string buf pos header.h_len; pos = 0;
          stop = header.h_len }
      in
      match get_frame c with
      | frame ->
        if c.pos <> c.stop then
          Error
            (Malformed
               (Printf.sprintf "%d trailing bytes after frame" (c.stop - c.pos)))
        else Ok frame
      | exception Bad e -> Error e
    end
  end
