module Stable_store = Rdt_storage.Stable_store

type t =
  | Store of { pid : int; lsn : int; entry : Stable_store.entry }
  | Eliminate of { pid : int; lsn : int; index : int }
  | Truncate_above of { pid : int; lsn : int; index : int }

let lsn = function
  | Store { lsn; _ } | Eliminate { lsn; _ } | Truncate_above { lsn; _ } -> lsn

(* kind tags *)
let tag_store = 1
let tag_eliminate = 2
let tag_truncate = 3

(* Fixed part: u8 kind, u32 pid, u64 lsn, u32 index. *)
let head_len = 1 + 4 + 8 + 4

(* Store extension: f64 taken_at, u32 size_bytes, u64 payload, u16 dv_len,
   then dv_len * u32, then size_bytes filler bytes. *)
let store_ext_len = 8 + 4 + 8 + 2

let max_dv_len = 0xffff

let filler_byte ~payload ~k =
  Char.chr ((payload + (k * 167)) land 0xff)

(* 167 * 256 = 0 (mod 256): the filler repeats every 256 bytes *)
let filler_period = 256

(* every u32 field must round-trip; [Int32.of_int] would wrap silently *)
let check_u32 what x =
  if x < 0 || x > 0xffff_ffff then
    invalid_arg (Printf.sprintf "Record: %s %d out of u32 range" what x)

let encoded_length = function
  | Eliminate { pid; index; _ } | Truncate_above { pid; index; _ } ->
    check_u32 "pid" pid;
    check_u32 "index" index;
    head_len
  | Store { pid; entry; _ } ->
    check_u32 "pid" pid;
    check_u32 "index" entry.Stable_store.index;
    check_u32 "size_bytes" entry.size_bytes;
    let dv_len = Array.length entry.dv in
    if dv_len > max_dv_len then invalid_arg "Record: dv too long";
    for i = 0 to dv_len - 1 do
      check_u32 "dv entry" entry.dv.(i)
    done;
    head_len + store_ext_len + (4 * dv_len) + entry.size_bytes

let put_head b pos ~kind ~pid ~lsn ~index =
  Bytes.set_uint8 b pos kind;
  Bytes.set_int32_le b (pos + 1) (Int32.of_int pid);
  Bytes.set_int64_le b (pos + 5) (Int64.of_int lsn);
  Bytes.set_int32_le b (pos + 13) (Int32.of_int index)

(* [size] filler bytes at [off]: one period bytewise, then doubling
   non-overlapping blits of what is already written *)
let put_filler b off ~payload ~size =
  for k = 0 to min size filler_period - 1 do
    Bytes.set b (off + k) (filler_byte ~payload ~k)
  done;
  let filled = ref (min size filler_period) in
  while !filled < size do
    let n = min !filled (size - !filled) in
    Bytes.blit b off b (off + !filled) n;
    filled := !filled + n
  done

let encode_into r b ~pos =
  let len = encoded_length r in
  if pos < 0 || pos > Bytes.length b - len then
    invalid_arg "Record.encode_into";
  match r with
  | Eliminate { pid; lsn; index } ->
    put_head b pos ~kind:tag_eliminate ~pid ~lsn ~index
  | Truncate_above { pid; lsn; index } ->
    put_head b pos ~kind:tag_truncate ~pid ~lsn ~index
  | Store { pid; lsn; entry } ->
    put_head b pos ~kind:tag_store ~pid ~lsn ~index:entry.Stable_store.index;
    let ext = pos + head_len in
    Bytes.set_int64_le b ext (Int64.bits_of_float entry.taken_at);
    Bytes.set_int32_le b (ext + 8) (Int32.of_int entry.size_bytes);
    Bytes.set_int64_le b (ext + 12) (Int64.of_int entry.payload);
    Bytes.set_uint16_le b (ext + 20) (Array.length entry.dv);
    let dv_off = ext + store_ext_len in
    for i = 0 to Array.length entry.dv - 1 do
      Bytes.set_int32_le b (dv_off + (4 * i)) (Int32.of_int entry.dv.(i))
    done;
    put_filler b
      (dv_off + (4 * Array.length entry.dv))
      ~payload:entry.payload ~size:entry.size_bytes

let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

let decode b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Record.decode";
  if len < head_len then Error "record shorter than header"
  else begin
    let kind = Bytes.get_uint8 b pos in
    let pid = u32 b (pos + 1) in
    let lsn = Int64.to_int (Bytes.get_int64_le b (pos + 5)) in
    let index = u32 b (pos + 13) in
    if kind = tag_eliminate then
      if len = head_len then Ok (Eliminate { pid; lsn; index })
      else Error "eliminate record has trailing bytes"
    else if kind = tag_truncate then
      if len = head_len then Ok (Truncate_above { pid; lsn; index })
      else Error "truncate record has trailing bytes"
    else if kind = tag_store then begin
      if len < head_len + store_ext_len then Error "store record truncated"
      else begin
        let ext = pos + head_len in
        let taken_at = Int64.float_of_bits (Bytes.get_int64_le b ext) in
        let size_bytes = u32 b (ext + 8) in
        let payload = Int64.to_int (Bytes.get_int64_le b (ext + 12)) in
        let dv_len = Bytes.get_uint16_le b (ext + 20) in
        let expect = head_len + store_ext_len + (4 * dv_len) + size_bytes in
        if len <> expect then Error "store record length mismatch"
        else begin
          let dv_off = ext + store_ext_len in
          let dv = Array.init dv_len (fun i -> u32 b (dv_off + (4 * i))) in
          Ok
            (Store
               {
                 pid;
                 lsn;
                 entry = { Stable_store.index; dv; taken_at; size_bytes; payload };
               })
        end
      end
    end
    else Error (Printf.sprintf "unknown record kind %d" kind)
  end
