let magic = "RDTSEG01"
let magic_len = String.length magic
let frame_head_len = 8 (* u32 length + u32 crc *)

(* Upper bound on a sane frame payload; anything larger read back from
   disk is treated as a torn/corrupt length field. *)
let max_payload = 64 * 1024 * 1024

type writer = {
  w_path : string;
  fd : Unix.file_descr;
  mutable buf : Bytes.t;  (* staging buffer, kept across flushes *)
  mutable staged : int;  (* bytes of [buf] not yet written *)
  mutable pending : int;  (* records staged *)
  mutable written : int;  (* bytes handed to write(2) *)
  mutable synced : int;  (* bytes covered by the last fsync *)
  mutable closed : bool;
}

(* grow by doubling; the staged prefix moves, nothing else is kept *)
let reserve w n =
  let need = w.staged + n in
  if need > Bytes.length w.buf then begin
    let cap = ref (max 4096 (2 * Bytes.length w.buf)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let buf = Bytes.create !cap in
    Bytes.blit w.buf 0 buf 0 w.staged;
    w.buf <- buf
  end

let create_writer ?reuse ~path () =
  let buf =
    match reuse with
    | None -> Bytes.empty
    | Some old ->
      if not old.closed then
        invalid_arg "Segment.create_writer: reuse of an open writer";
      let buf = old.buf in
      old.buf <- Bytes.empty;
      buf
  in
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let w =
    {
      w_path = path;
      fd;
      buf;
      staged = 0;
      pending = 0;
      written = 0;
      synced = 0;
      closed = false;
    }
  in
  reserve w magic_len;
  Bytes.blit_string magic 0 w.buf 0 magic_len;
  w.staged <- magic_len;
  w

let frame_length r =
  let len = Record.encoded_length r in
  if len > max_payload then
    invalid_arg
      (Printf.sprintf
         "Segment: a %d-byte record exceeds the %d-byte frame limit" len
         max_payload);
  frame_head_len + len

let append w r =
  if w.closed then invalid_arg "Segment.append: writer closed";
  let frame = frame_length r in
  reserve w frame;
  let head = w.staged in
  let len = frame - frame_head_len in
  Record.encode_into r w.buf ~pos:(head + frame_head_len);
  Bytes.set_int32_le w.buf head (Int32.of_int len);
  Bytes.set_int32_le w.buf (head + 4)
    (Crc32.bytes w.buf ~pos:(head + frame_head_len) ~len);
  w.staged <- head + frame;
  w.pending <- w.pending + 1;
  frame

let pending_records w = w.pending
let pending_bytes w = w.staged
let written_bytes w = w.written

let write_all fd b pos len =
  let pos = ref pos and left = ref len in
  while !left > 0 do
    let n = Unix.write fd b !pos !left in
    pos := !pos + n;
    left := !left - n
  done

let flush w =
  let len = w.staged in
  if len > 0 then begin
    write_all w.fd w.buf 0 len;
    w.staged <- 0;
    w.pending <- 0;
    w.written <- w.written + len
  end

let sync w =
  flush w;
  Unix.fsync w.fd;
  w.synced <- w.written

let close w =
  if not w.closed then begin
    flush w;
    Unix.fsync w.fd;
    w.synced <- w.written;
    w.closed <- true;
    Unix.close w.fd
  end

let abandon w =
  w.closed <- true;
  w.staged <- 0;
  w.pending <- 0;
  Unix.close w.fd

(* --- crash mechanics --------------------------------------------------- *)

let crash_short_write w ~rng =
  let len = w.staged in
  (* a strict prefix: at least nothing, at most all-but-one byte *)
  let keep = if len = 0 then 0 else Rdt_sim.Prng.int rng len in
  if keep > 0 then write_all w.fd w.buf 0 keep;
  abandon w

let crash_drop_unsynced w =
  (* pending buffer evaporates and written-but-unsynced bytes roll back:
     the strongest legal data loss short of media failure *)
  Unix.ftruncate w.fd w.synced;
  abandon w

let crash_bit_flip w ~rng =
  flush w;
  if w.written > magic_len then begin
    let off = magic_len + Rdt_sim.Prng.int rng (w.written - magic_len) in
    let fd = Unix.openfile w.w_path [ O_RDWR; O_CLOEXEC ] 0o644 in
    ignore (Unix.lseek fd off SEEK_SET);
    let one = Bytes.create 1 in
    if Unix.read fd one 0 1 = 1 then begin
      Bytes.set one 0
        (Char.chr (Char.code (Bytes.get one 0) lxor (1 lsl Rdt_sim.Prng.int rng 8)));
      ignore (Unix.lseek fd off SEEK_SET);
      ignore (Unix.write fd one 0 1)
    end;
    Unix.close fd
  end;
  abandon w

(* --- scanning ---------------------------------------------------------- *)

type scan_stats = {
  records : int;
  dropped : int;
  torn_bytes : int;
  bad_magic : bool;
}

let read_file path =
  let ic = In_channel.open_bin path in
  Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () ->
      In_channel.input_all ic)

let scan ~path ~f =
  let data = read_file path in
  let len = String.length data in
  if len = 0 then { records = 0; dropped = 0; torn_bytes = 0; bad_magic = false }
  else if len < magic_len || String.sub data 0 magic_len <> magic then
    { records = 0; dropped = 0; torn_bytes = len; bad_magic = true }
  else begin
    let b = Bytes.unsafe_of_string data in
    let records = ref 0 and dropped = ref 0 and torn = ref 0 in
    let off = ref magic_len in
    let stop = ref false in
    while (not !stop) && !off < len do
      if !off + frame_head_len > len then begin
        torn := len - !off;
        stop := true
      end
      else begin
        let plen = Int32.to_int (Bytes.get_int32_le b !off) land 0xffffffff in
        let crc = Bytes.get_int32_le b (!off + 4) in
        if plen > max_payload || !off + frame_head_len + plen > len then begin
          (* insane or overrunning length: a torn (or length-corrupted)
             tail — nothing past this point can be framed reliably *)
          torn := len - !off;
          stop := true
        end
        else begin
          let ppos = !off + frame_head_len in
          if Crc32.bytes b ~pos:ppos ~len:plen <> crc then incr dropped
          else begin
            match Record.decode b ~pos:ppos ~len:plen with
            | Ok r ->
              f ~frame_bytes:(frame_head_len + plen) r;
              incr records
            | Error _ -> incr dropped
          end;
          off := ppos + plen
        end
      end
    done;
    { records = !records; dropped = !dropped; torn_bytes = !torn; bad_magic = false }
  end
