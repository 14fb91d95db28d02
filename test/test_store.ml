(* The log-structured durable checkpoint store (lib/store): framing,
   recovery scans, GC-driven compaction, fault injection, and the
   end-to-end acceptance properties of the durable Runner backend. *)

module S = Rdt_storage.Stable_store
module Crc32 = Rdt_store.Crc32
module Record = Rdt_store.Record
module Segment = Rdt_store.Segment
module Manifest = Rdt_store.Manifest
module Fault = Rdt_store.Fault
module Log_store = Rdt_store.Log_store
module Prng = Rdt_sim.Prng
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Harness = Rdt_verify.Harness

let mk_entry ?(dv = [| 1; 2; 3 |]) ?(size_bytes = 24) ?(payload = 4242) index =
  {
    S.index;
    dv;
    taken_at = 1.5 +. float_of_int index;
    size_bytes;
    payload = payload + index;
  }

(* flip one bit of [path] at byte [offset] *)
let flip_byte path offset =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd offset Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
  ignore (Unix.lseek fd offset Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* --- CRC-32 ------------------------------------------------------------- *)

let test_crc32_vectors () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "")

(* the definition, one bit at a time: independent of the table-driven
   implementation under test *)
let crc32_reference b ~pos ~len =
  let crc = ref 0xffff_ffff in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      crc :=
        if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  Int32.of_int (!crc lxor 0xffff_ffff)

(* random windows over a random buffer: unaligned starts and every tail
   length past the 8-byte blocks *)
let crc32_matches_reference =
  QCheck.Test.make ~name:"crc32 = bit-at-a-time reference on random windows"
    ~count:500
    QCheck.(triple (string_of_size Gen.(0 -- 96)) small_nat small_nat)
    (fun (s, x, y) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let pos = x mod (n + 1) in
      let len = y mod (n - pos + 1) in
      Crc32.bytes b ~pos ~len = crc32_reference b ~pos ~len)

let test_crc32_every_tail () =
  let b = Bytes.init 64 (fun i -> Char.chr (((i * 73) + 11) land 0xff)) in
  for pos = 0 to 8 do
    for len = 0 to 64 - pos do
      if Crc32.bytes b ~pos ~len <> crc32_reference b ~pos ~len then
        Alcotest.failf "crc32 mismatch at pos %d len %d" pos len
    done
  done

let test_crc32_window () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int32) "windowed = string" (Crc32.string "123456789")
    (Crc32.bytes b ~pos:2 ~len:9);
  (* sensitivity: changing any byte must change the checksum *)
  let base = Crc32.bytes b ~pos:2 ~len:9 in
  Bytes.set b 5 'X';
  Alcotest.(check bool) "byte change detected" true
    (Crc32.bytes b ~pos:2 ~len:9 <> base)

(* --- record encoding ---------------------------------------------------- *)

let decode_all b = Record.decode b ~pos:0 ~len:(Bytes.length b)

let encode r =
  let b = Bytes.create (Record.encoded_length r) in
  Record.encode_into r b ~pos:0;
  b

(* the segment frame around a record: u32 length + u32 CRC *)
let frame_head = 8

let test_record_roundtrip () =
  let roundtrip r =
    match decode_all (encode r) with
    | Ok r' -> r'
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  let entry = mk_entry ~dv:[| 4; 0; 7; 2 |] ~size_bytes:33 5 in
  (match roundtrip (Record.Store { pid = 2; lsn = 41; entry }) with
  | Record.Store { pid; lsn; entry = e } ->
    Alcotest.(check int) "pid" 2 pid;
    Alcotest.(check int) "lsn" 41 lsn;
    Alcotest.(check bool) "entry" true (Helpers.entry_eq entry e)
  | _ -> Alcotest.fail "wrong kind");
  (match roundtrip (Record.Eliminate { pid = 1; lsn = 9; index = 3 }) with
  | Record.Eliminate { pid = 1; lsn = 9; index = 3 } -> ()
  | _ -> Alcotest.fail "eliminate roundtrip");
  match roundtrip (Record.Truncate_above { pid = 0; lsn = 77; index = 12 }) with
  | Record.Truncate_above { pid = 0; lsn = 77; index = 12 } -> ()
  | _ -> Alcotest.fail "truncate roundtrip"

let test_record_decode_garbage () =
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (decode_all (Bytes.create 0)));
  Alcotest.(check bool) "bad kind rejected" true
    (Result.is_error (decode_all (Bytes.make 40 '\xff')));
  let whole =
    encode (Record.Store { pid = 0; lsn = 1; entry = mk_entry 0 })
  in
  Alcotest.(check bool) "truncated rejected" true
    (Result.is_error
       (Record.decode whole ~pos:0 ~len:(Bytes.length whole - 3)))

let test_record_encode_into_offset () =
  let records =
    [
      Record.Store { pid = 3; lsn = 12; entry = mk_entry ~size_bytes:700 4 };
      Record.Eliminate { pid = 3; lsn = 13; index = 4 };
      Record.Truncate_above { pid = 3; lsn = 14; index = 2 };
    ]
  in
  List.iter
    (fun r ->
      let whole = encode r in
      let len = Bytes.length whole in
      let b = Bytes.make (len + 20) '#' in
      Record.encode_into r b ~pos:13;
      Alcotest.(check string) "same bytes at pos 13" (Bytes.to_string whole)
        (Bytes.sub_string b 13 len);
      Alcotest.(check string) "prefix untouched" (String.make 13 '#')
        (Bytes.sub_string b 0 13);
      Alcotest.(check string) "suffix untouched" (String.make 7 '#')
        (Bytes.sub_string b (13 + len) 7);
      Alcotest.check_raises "no room" (Invalid_argument "Record.encode_into")
        (fun () -> Record.encode_into r b ~pos:21))
    records

let test_record_filler_sizes () =
  List.iter
    (fun size_bytes ->
      let entry = mk_entry ~dv:[| 9; 0; 2 |] ~size_bytes ~payload:77 6 in
      let b = encode (Record.Store { pid = 1; lsn = 5; entry }) in
      let fill_off = Bytes.length b - size_bytes in
      for k = 0 to size_bytes - 1 do
        (* the filler's definition: a function of the state digest *)
        let want = Char.chr ((entry.S.payload + (k * 167)) land 0xff) in
        if Bytes.get b (fill_off + k) <> want then
          Alcotest.failf "size %d: filler byte %d wrong" size_bytes k
      done;
      match decode_all b with
      | Ok (Record.Store { pid = 1; lsn = 5; entry = e }) ->
        Alcotest.(check bool)
          (Printf.sprintf "size %d roundtrips" size_bytes)
          true (Helpers.entry_eq entry e)
      | Ok _ | Error _ -> Alcotest.failf "size %d: decode failed" size_bytes)
    [ 0; 1; 255; 256; 257; 512; 4096; 4097 ]

let test_record_rejects_unencodable () =
  let rejects name r =
    Alcotest.(check bool) name true
      (match Record.encoded_length r with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  let store ?(pid = 0) entry = Record.Store { pid; lsn = 0; entry } in
  rejects "pid >= 2^32" (store ~pid:(1 lsl 32) (mk_entry 0));
  rejects "negative pid" (store ~pid:(-1) (mk_entry 0));
  rejects "index >= 2^32" (store (mk_entry (1 lsl 32)));
  rejects "dv entry >= 2^32" (store (mk_entry ~dv:[| 0; 1 lsl 32 |] 0));
  rejects "size_bytes >= 2^32" (store (mk_entry ~size_bytes:(1 lsl 32) 0));
  rejects "negative size_bytes" (store (mk_entry ~size_bytes:(-1) 0));
  rejects "tombstone index" (Record.Eliminate { pid = 0; lsn = 0; index = -1 });
  Alcotest.(check int) "u32 max accepted" 17
    (Record.encoded_length
       (Record.Truncate_above { pid = 0xffff_ffff; lsn = 0; index = 0xffff_ffff }))

(* --- segments ----------------------------------------------------------- *)

let seg_records =
  List.map
    (fun i -> Record.Store { pid = 0; lsn = i; entry = mk_entry i })
    [ 0; 1; 2 ]

let write_segment path records =
  let w = Segment.create_writer ~path () in
  List.iter (fun r -> ignore (Segment.append w r)) records;
  Segment.close w

let scan_lsns path =
  let got = ref [] in
  let stats =
    Segment.scan ~path ~f:(fun ~frame_bytes:_ r -> got := Record.lsn r :: !got)
  in
  (List.rev !got, stats)

let test_segment_roundtrip () =
  let path = Filename.temp_file "rdtseg" ".log" in
  write_segment path seg_records;
  let lsns, stats = scan_lsns path in
  Alcotest.(check (list int)) "all records" [ 0; 1; 2 ] lsns;
  Alcotest.(check int) "none dropped" 0 stats.Segment.dropped;
  Alcotest.(check int) "no torn bytes" 0 stats.Segment.torn_bytes;
  Alcotest.(check bool) "magic ok" false stats.Segment.bad_magic;
  Sys.remove path

let test_segment_torn_tail () =
  let path = Filename.temp_file "rdtseg" ".log" in
  write_segment path seg_records;
  (* chop the file mid-way through the last frame *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 5);
  Unix.close fd;
  let lsns, stats = scan_lsns path in
  Alcotest.(check (list int)) "prefix survives" [ 0; 1 ] lsns;
  Alcotest.(check bool) "tail reported torn" true (stats.Segment.torn_bytes > 0);
  Alcotest.(check int) "nothing dropped" 0 stats.Segment.dropped;
  Sys.remove path

let test_segment_corrupt_record_skipped () =
  (* acceptance (c), segment level: a CRC-rejected record is dropped
     without discarding its neighbours *)
  let path = Filename.temp_file "rdtseg" ".log" in
  write_segment path seg_records;
  let frame = Segment.frame_length (List.nth seg_records 0) in
  (* a payload byte inside the *second* frame (8 = segment magic) *)
  flip_byte path (8 + frame + frame_head + 3);
  let lsns, stats = scan_lsns path in
  Alcotest.(check (list int)) "neighbours survive" [ 0; 2 ] lsns;
  Alcotest.(check int) "one dropped" 1 stats.Segment.dropped;
  Sys.remove path

let test_segment_bad_magic () =
  let path = Filename.temp_file "rdtseg" ".log" in
  let oc = open_out_bin path in
  output_string oc "NOTASEGMENTFILE!";
  close_out oc;
  let lsns, stats = scan_lsns path in
  Alcotest.(check (list int)) "nothing delivered" [] lsns;
  Alcotest.(check bool) "flagged" true stats.Segment.bad_magic;
  Sys.remove path

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* A short write persists the flushed bytes plus a strict prefix of the
   staged batch, cut from the very bytes a full flush would have written. *)
let test_segment_short_write_prefix () =
  let records =
    List.init 7 (fun i ->
        Record.Store
          { pid = 0; lsn = i; entry = mk_entry ~size_bytes:(300 * i) i })
  in
  let first = List.filteri (fun i _ -> i < 3) records
  and batch = List.filteri (fun i _ -> i >= 3) records in
  let full_path = Filename.temp_file "rdtseg" ".log" in
  write_segment full_path records;
  let full = read_all full_path in
  for seed = 1 to 20 do
    let path = Filename.temp_file "rdtseg" ".log" in
    let w = Segment.create_writer ~path () in
    List.iter (fun r -> ignore (Segment.append w r)) first;
    Segment.flush w;
    let flushed = Segment.written_bytes w in
    List.iter (fun r -> ignore (Segment.append w r)) batch;
    let staged = Segment.pending_bytes w in
    Segment.crash_short_write w ~rng:(Prng.create ~seed);
    let got = read_all path in
    let n = String.length got in
    if n < flushed || n >= flushed + staged then
      Alcotest.failf "seed %d: %d bytes survive, not in [%d, %d)" seed n flushed
        (flushed + staged);
    Alcotest.(check string)
      (Printf.sprintf "seed %d: a prefix of the full segment" seed)
      (String.sub full 0 n) got;
    Sys.remove path
  done;
  Sys.remove full_path

(* --- manifest ----------------------------------------------------------- *)

let test_manifest_roundtrip () =
  let dir = Helpers.tmp_dir () in
  Unix.mkdir dir 0o755;
  let m =
    {
      Manifest.segments = [ 0; 3; 7 ];
      compactions = 2;
      bytes_reclaimed = 9001;
      appended_records = 123;
    }
  in
  Manifest.write ~dir m;
  (match Manifest.read ~dir with
  | Some m' -> Alcotest.(check bool) "roundtrip" true (m = m')
  | None -> Alcotest.fail "manifest unreadable");
  (* corrupt it: read must fall back to None, not crash *)
  let path = Filename.concat dir "MANIFEST" in
  let oc = open_out_bin path in
  output_string oc "rdt-store-manifest v1\ngarbage\n";
  close_out oc;
  Alcotest.(check bool) "corrupt rejected" true (Manifest.read ~dir = None);
  Sys.remove path;
  Alcotest.(check bool) "missing is None" true (Manifest.read ~dir = None);
  Harness.rm_rf dir

(* --- log store ---------------------------------------------------------- *)

let no_auto = { Log_store.default_config with Log_store.auto_compact = false }

let test_log_store_ops () =
  let dir = Helpers.tmp_dir () in
  let t = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  List.iter (fun i -> Log_store.append t (mk_entry i)) [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "live" 5 (List.length (Log_store.live_indices t));
  Log_store.eliminate t ~index:1;
  Log_store.eliminate t ~index:3;
  Alcotest.(check (list int)) "live indices" [ 0; 2; 4 ] (Log_store.live_indices t);
  (Log_store.backend t).S.b_truncate_above ~index:2;
  Alcotest.(check (list int)) "after truncate" [ 0; 2 ] (Log_store.live_indices t);
  (* a truncated index can be stored again (rollback then new s^3) *)
  Log_store.append t (mk_entry ~payload:9000 3);
  Alcotest.(check (list int)) "re-stored" [ 0; 2; 3 ] (Log_store.live_indices t);
  let stats = Log_store.stats t in
  Alcotest.(check int) "appended counts tombstones" 9 stats.Log_store.appended_records;
  Alcotest.(check bool) "dead bytes tracked" true (stats.Log_store.dead_bytes > 0);
  Log_store.close t;
  Harness.rm_rf dir

let test_log_store_recovery () =
  let dir = Helpers.tmp_dir () in
  let t = Log_store.create ~config:no_auto ~pid:3 ~dir () in
  List.iter (fun i -> Log_store.append t (mk_entry ~dv:[| i; 0; i |] i)) [ 0; 1; 2 ];
  Log_store.eliminate t ~index:0;
  let live = List.map (fun i -> mk_entry ~dv:[| i; 0; i |] i) [ 1; 2 ] in
  Log_store.close t;
  let t2 = Log_store.create ~config:no_auto ~pid:3 ~dir () in
  let r = Log_store.recovery t2 in
  Alcotest.(check bool) "entries survive byte-exactly" true
    (Helpers.entries_eq live r.Log_store.recovered);
  Alcotest.(check int) "nothing dropped" 0 r.Log_store.records_dropped;
  Alcotest.(check int) "no torn bytes" 0 r.Log_store.torn_bytes;
  (* counters carry over through the manifest *)
  Alcotest.(check int) "appended carried" 4
    (Log_store.stats t2).Log_store.appended_records;
  (* mutations continue where the history left off *)
  Log_store.append t2 (mk_entry 3);
  Alcotest.(check (list int)) "continues" [ 1; 2; 3 ] (Log_store.live_indices t2);
  Log_store.close t2;
  Harness.rm_rf dir

let test_log_store_compaction () =
  let dir = Helpers.tmp_dir () in
  let t = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  for i = 0 to 19 do
    Log_store.append t (mk_entry ~size_bytes:128 i);
    if i >= 2 then Log_store.eliminate t ~index:(i - 2)
  done;
  let before = (Log_store.stats t).Log_store.disk_bytes in
  let live = List.map (fun i -> mk_entry ~size_bytes:128 i) [ 18; 19 ] in
  Log_store.compact t;
  let s = Log_store.stats t in
  Alcotest.(check bool) "disk shrank" true (s.Log_store.disk_bytes < before);
  Alcotest.(check int) "one compaction" 1 s.Log_store.compactions;
  Alcotest.(check bool) "reclaimed counted" true (s.Log_store.bytes_reclaimed > 0);
  Alcotest.(check (list int)) "live set intact" [ 18; 19 ]
    (Log_store.live_indices t);
  Log_store.close t;
  (* the rewritten store recovers to the same live set *)
  let t2 = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  Alcotest.(check bool) "recovers post-compaction" true
    (Helpers.entries_eq live (Log_store.recovery t2).Log_store.recovered);
  Alcotest.(check int) "compaction counter durable" 1
    (Log_store.stats t2).Log_store.compactions;
  Log_store.close t2;
  Harness.rm_rf dir

let test_log_store_auto_compaction () =
  (* every elimination re-evaluates the dead ratio (the RDT-LGC
     notification path): garbage must be reclaimed without any explicit
     compact call *)
  let dir = Helpers.tmp_dir () in
  let config =
    {
      Log_store.default_config with
      Log_store.compact_min_dead_bytes = 512;
      auto_compact = true;
    }
  in
  let t = Log_store.create ~config ~pid:0 ~dir () in
  for i = 0 to 49 do
    Log_store.append t (mk_entry ~size_bytes:64 i);
    if i >= 3 then Log_store.eliminate t ~index:(i - 3)
  done;
  let s = Log_store.stats t in
  Alcotest.(check bool) "auto-compacted" true (s.Log_store.compactions > 0);
  Alcotest.(check bool) "garbage bounded" true
    (s.Log_store.dead_bytes < 4 * 1024);
  Alcotest.(check (list int)) "live set correct" [ 47; 48; 49 ]
    (Log_store.live_indices t);
  Log_store.close t;
  Harness.rm_rf dir

let test_log_store_corrupt_record () =
  (* acceptance (c), store level: a deliberately corrupted record is
     rejected by the CRC scan without aborting recovery *)
  let dir = Helpers.tmp_dir () in
  let t = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  (* identical shapes => identical frame sizes, so offsets are computable *)
  List.iter (fun i -> Log_store.append t (mk_entry i)) [ 0; 1; 2; 3; 4 ];
  let frame =
    Segment.frame_length (Record.Store { pid = 0; lsn = 0; entry = mk_entry 0 })
  in
  Log_store.close t;
  let seg =
    Sys.readdir dir |> Array.to_list
    |> List.find (fun f -> Filename.check_suffix f ".log")
  in
  (* corrupt a payload byte of the third record *)
  flip_byte (Filename.concat dir seg) (8 + (2 * frame) + frame_head + 3);
  let t2 = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  let r = Log_store.recovery t2 in
  Alcotest.(check int) "exactly one dropped" 1 r.Log_store.records_dropped;
  Alcotest.(check (list int)) "neighbours survive" [ 0; 1; 3; 4 ]
    (Log_store.live_indices t2);
  Log_store.close t2;
  Harness.rm_rf dir

(* An oversize record used to be staged, acknowledged, and then read back
   as a torn tail; now it is refused up front and the store is untouched.
   [frame_length] rejects on the declared size, so no 64 MiB buffer is
   ever built. *)
let test_log_store_rejects_oversize () =
  let dir = Helpers.tmp_dir () in
  (* every append seals its segment, so a refused one must not even open
     a new segment file *)
  let config = { no_auto with Log_store.segment_target_bytes = 1 } in
  let t = Log_store.create ~config ~pid:0 ~dir () in
  List.iter (fun i -> Log_store.append t (mk_entry i)) [ 0; 2 ];
  let before = Log_store.stats t in
  let files () = Sys.readdir dir |> Array.to_list |> List.sort compare in
  let files_before = files () in
  let refused name entry =
    Alcotest.(check bool) name true
      (match Log_store.append t entry with
      | () -> false
      | exception Invalid_argument _ -> true)
  in
  refused "payload over the frame limit"
    (mk_entry ~size_bytes:(64 * 1024 * 1024) 1);
  refused "index over u32" (mk_entry (1 lsl 32));
  refused "dv entry over u32" (mk_entry ~dv:[| 1; 1 lsl 32; 3 |] 1);
  Alcotest.(check bool) "stats untouched" true (before = Log_store.stats t);
  Alcotest.(check (list string)) "no file created" files_before (files ());
  Alcotest.(check (list int)) "live set untouched" [ 0; 2 ]
    (Log_store.live_indices t);
  Log_store.close t;
  let t2 = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  let r = Log_store.recovery t2 in
  Alcotest.(check (list int)) "recovers the acknowledged records" [ 0; 2 ]
    (List.map (fun (e : S.entry) -> e.S.index) r.Log_store.recovered);
  Alcotest.(check int) "no torn bytes" 0 r.Log_store.torn_bytes;
  Alcotest.(check int) "nothing dropped" 0 r.Log_store.records_dropped;
  Log_store.close t2;
  Harness.rm_rf dir

let test_log_store_open_is_readonly () =
  let dir = Helpers.tmp_dir () in
  let t = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  List.iter (fun i -> Log_store.append t (mk_entry i)) [ 0; 1; 2 ];
  Log_store.close t;
  let mtimes () =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f ->
           let st = Unix.stat (Filename.concat dir f) in
           (f, st.Unix.st_size))
  in
  let before = mtimes () in
  (* a pure inspection (store-stats) must leave the directory untouched *)
  let ro = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  ignore (Log_store.stats ro);
  Log_store.close ro;
  Alcotest.(check bool) "no bytes written" true (before = mtimes ());
  Harness.rm_rf dir

(* --- on-disk format golden ---------------------------------------------- *)

(* A fixed op sequence — 4 KiB and 1-byte checkpoints, eliminations that
   trigger auto-compaction, a rollback truncation, a clean close — and the
   MD5 of every file it leaves.  Any change to record encoding, framing,
   CRC, segment rotation, compaction or the manifest shows up here; a
   deliberate format change must update these digests (and bump the
   segment magic). *)
let golden_config =
  {
    Log_store.batch_records = 4;
    fsync = Log_store.Every 8;
    segment_target_bytes = 16 * 1024;
    compact_min_dead_bytes = 8 * 1024;
    auto_compact = true;
  }

let golden_digests =
  [
    ("MANIFEST", "1f96713307e53e9a7dbbfe7e0c54e797");
    ("seg-00000014.log", "32085b4a32f156ba042f2cc6893194d6");
    ("seg-00000015.log", "8692242c14197c9c2c1ff25e272b5697");
  ]

let test_format_golden () =
  let dir = Helpers.tmp_dir () in
  let t = Log_store.create ~config:golden_config ~pid:5 ~dir () in
  for i = 0 to 23 do
    let size_bytes = if i mod 3 = 2 then 1 else 4096 in
    Log_store.append t
      (mk_entry ~dv:[| i; i / 2; 7; 0x1234_5678 |] ~size_bytes ~payload:(31 * i) i);
    if i >= 3 then Log_store.eliminate t ~index:(i - 3)
  done;
  (Log_store.backend t).S.b_truncate_above ~index:21;
  let s = Log_store.stats t in
  Alcotest.(check bool) "auto-compaction ran" true (s.Log_store.compactions > 0);
  Alcotest.(check (list int)) "live after truncate" [ 21 ] (Log_store.live_indices t);
  Log_store.close t;
  let got =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f -> (f, Digest.to_hex (Digest.file (Filename.concat dir f))))
  in
  Alcotest.(check (list (pair string string))) "file digests" golden_digests got;
  Harness.rm_rf dir

(* --- injected crashes --------------------------------------------------- *)

(* Drive a store with fsync-per-record until the armed fault fires; with
   [Always] the durable prefix is sharp: exactly ops 1..F-1 survive. *)
let crash_at_op kind op =
  let dir = Helpers.tmp_dir () in
  let config = { no_auto with Log_store.fsync = Log_store.Always } in
  let faults = Fault.at_op ~op ~kind ~rng:(Prng.create ~seed:99) in
  let t = Log_store.create ~config ~faults ~pid:0 ~dir () in
  (* op sequence: appends 0,1,2,... with an eliminate interleaved *)
  let history = ref [ [] ] in
  let crashed = ref false in
  (try
     let i = ref 0 in
     while not !crashed do
       (match !i mod 3 with
       | 2 -> Log_store.eliminate t ~index:(Log_store.live_indices t |> List.hd)
       | _ ->
         let idx = match Log_store.live_indices t with
           | [] -> 0
           | l -> List.fold_left max 0 l + 1
         in
         Log_store.append t (mk_entry idx));
       history := Log_store.live_indices t :: !history;
       incr i
     done
   with Fault.Injected_crash { op = fired; kind = k } ->
     crashed := true;
     Alcotest.(check int) "fired at the armed op" op fired;
     Alcotest.(check string) "right kind" (Fault.kind_name kind) (Fault.kind_name k));
  Alcotest.(check bool) "fault fired" true !crashed;
  (* the poisoned instance rejects further use *)
  Alcotest.(check bool) "poisoned" true
    (try
       Log_store.append t (mk_entry 999);
       false
     with Invalid_argument _ -> true);
  (* recovery: exactly ops 1..op-1 (history.(0) is pre-crash state after
     op-1 completed ops; the op that crashed was never acknowledged) *)
  let t2 = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  let expected = List.nth !history 0 in
  Alcotest.(check (list int))
    (Printf.sprintf "durable prefix after %s" (Fault.kind_name kind))
    expected (Log_store.live_indices t2);
  Log_store.close t2;
  Harness.rm_rf dir

let test_crash_short_write () = crash_at_op Fault.Short_write 7
let test_crash_before_sync () = crash_at_op Fault.Crash_before_sync 5

let test_crash_bit_flip () =
  (* a flipped bit may knock out any one already-written record; recovery
     must still complete and return intact records only *)
  let dir = Helpers.tmp_dir () in
  let config = { no_auto with Log_store.fsync = Log_store.Always } in
  let faults = Fault.at_op ~op:6 ~kind:Fault.Bit_flip ~rng:(Prng.create ~seed:5) in
  let t = Log_store.create ~config ~faults ~pid:0 ~dir () in
  let appended = ref [] in
  (try
     for i = 0 to 9 do
       let e = mk_entry i in
       appended := e :: !appended;
       Log_store.append t e
     done
   with Fault.Injected_crash _ -> ());
  let t2 = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  let r = Log_store.recovery t2 in
  Alcotest.(check bool) "recovery completes with survivors" true
    (List.length r.Log_store.recovered > 0);
  List.iter
    (fun (e : S.entry) ->
      match List.find_opt (fun a -> Helpers.entry_eq a e) !appended with
      | Some _ -> ()
      | None -> Alcotest.failf "recovered entry %d was never appended" e.S.index)
    r.Log_store.recovered;
  Log_store.close t2;
  Harness.rm_rf dir

let test_fault_of_seed_deterministic () =
  let plan seed = Fault.of_seed ~seed ~max_op:20 in
  let fire p =
    let dir = Helpers.tmp_dir () in
    let t = Log_store.create ~faults:p ~pid:0 ~dir () in
    let result =
      try
        for i = 0 to 24 do
          Log_store.append t (mk_entry i)
        done;
        None
      with Fault.Injected_crash { op; kind } -> Some (op, kind)
    in
    Harness.rm_rf dir;
    result
  in
  (match (fire (plan 7), fire (plan 7)) with
  | Some a, Some b -> Alcotest.(check bool) "same seed, same fault" true (a = b)
  | _ -> Alcotest.fail "seeded plan must fire within max_op");
  Alcotest.(check bool) "none never fires" true (fire Fault.none = None)

(* --- end-to-end through the runner -------------------------------------- *)

let durable_cfg ~dir ~n ~seed ~duration ~faults =
  {
    Sim_config.default with
    Sim_config.n;
    seed;
    duration;
    faults;
    ckpt_bytes = 48;
    store =
      Sim_config.Durable
        {
          dir;
          config =
            {
              Log_store.default_config with
              Log_store.compact_min_dead_bytes = 1024;
            };
        };
  }

let test_runner_durable_bound () =
  (* acceptance (a): with RDT-LGC driving compaction, the per-process
     on-disk live checkpoint count never exceeds n+1 — the paper's
     Theorem 3 bound materialized on disk *)
  let dir = Helpers.tmp_dir () in
  let cfg = durable_cfg ~dir ~n:4 ~seed:11 ~duration:80.0 ~faults:[] in
  let t = Runner.create cfg in
  let violations = ref 0 in
  Runner.set_on_sample t (fun t ->
      for pid = 0 to 3 do
        match Runner.log_store t pid with
        | Some ls ->
          if List.length (Log_store.live_indices ls) > 5 then incr violations
        | None -> Alcotest.fail "expected a durable backend"
      done);
  Runner.run t;
  Alcotest.(check int) "on-disk live count <= n+1 at every sample" 0 !violations;
  for pid = 0 to 3 do
    match Runner.log_store t pid with
    | Some ls ->
      Alcotest.(check bool)
        (Printf.sprintf "final bound p%d" pid)
        true
        (List.length (Log_store.live_indices ls) <= 5);
      (* the disk mirrors the in-memory model exactly *)
      Alcotest.(check (list int))
        (Printf.sprintf "mirror p%d" pid)
        (S.retained_indices
           (Rdt_protocols.Middleware.store (Runner.middleware t pid)))
        (Log_store.live_indices ls)
    | None -> Alcotest.fail "durable backend"
  done;
  let s = Runner.summary t in
  Alcotest.(check bool) "compaction ran" true (s.Runner.store_compactions > 0);
  Runner.close_stores t;
  Harness.rm_rf dir

let test_runner_durable_crash_recovery () =
  (* acceptance (b): a full run with process crashes on the durable
     backend — the recovery session completes, and reopening every store
     directory afterwards restores exactly what the simulation retained *)
  let dir = Helpers.tmp_dir () in
  let cfg =
    durable_cfg ~dir ~n:4 ~seed:3 ~duration:80.0
      ~faults:
        [
          { Sim_config.crash_at = 25.0; pid = 1; repair_after = 4.0 };
          { Sim_config.crash_at = 55.0; pid = 3; repair_after = 4.0 };
        ]
  in
  let t = Runner.create cfg in
  Runner.run t;
  let s = Runner.summary t in
  Alcotest.(check int) "recovery sessions completed" 2 s.Runner.recovery_sessions;
  Runner.close_stores t;
  for pid = 0 to 3 do
    let sub = Filename.concat dir (Printf.sprintf "p%d" pid) in
    let ls = Log_store.create ~pid ~dir:sub () in
    let r = Log_store.recovery ls in
    Alcotest.(check int) "clean shutdown: nothing dropped" 0
      r.Log_store.records_dropped;
    let expected =
      S.retained (Rdt_protocols.Middleware.store (Runner.middleware t pid))
    in
    Alcotest.(check bool)
      (Printf.sprintf "p%d store recovered byte-exactly" pid)
      true
      (Helpers.entries_eq expected r.Log_store.recovered);
    (* the recovered entries rebuild a working in-memory store *)
    let mem = S.restore ~me:pid ~entries:r.Log_store.recovered in
    Alcotest.(check int) "restore count" (List.length expected) (S.count mem);
    Log_store.close ls
  done;
  Harness.rm_rf dir

(* --- crash in the middle of compaction --------------------------------- *)

(* Compaction has two durable-state windows: after the active segment is
   sealed but before anything was rewritten, and after the rewrite
   segment is synced but before the superseded segments are deleted.  A
   crash in either window must recover exactly the pre-compaction live
   set — the first from the untouched old segments, the second by LSN
   deduplication between the old segments and the rewrite. *)
let compaction_crash_scenario point =
  let dir = Helpers.tmp_dir () in
  let t = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  List.iter (fun i -> Log_store.append t (mk_entry i)) [ 0; 1; 2; 3; 4; 5 ];
  List.iter (fun i -> Log_store.eliminate t ~index:i) [ 0; 2; 4 ];
  let expected = [ mk_entry 1; mk_entry 3; mk_entry 5 ] in
  Log_store.arm_compaction_crash t point;
  (match Log_store.compact t with
  | () -> Alcotest.fail "armed compaction crash did not fire"
  | exception Log_store.Compaction_crash p ->
    Alcotest.(check bool) "crashed at the armed point" true (p = point));
  (* the crashed instance is poisoned; the directory is the truth *)
  let t2 = Log_store.create ~config:no_auto ~pid:0 ~dir () in
  let r = Log_store.recovery t2 in
  Alcotest.(check bool) "pre-compaction live set restored" true
    (Helpers.entries_eq expected r.Log_store.recovered);
  (* the reopened store is fully usable: a later compaction finishes the
     interrupted work and preserves the same live set *)
  Log_store.append t2 (mk_entry 6);
  Log_store.compact t2;
  Alcotest.(check (list int)) "live set after finishing compaction"
    [ 1; 3; 5; 6 ]
    (Log_store.live_indices t2);
  Log_store.close t2;
  Harness.rm_rf dir

let test_compaction_crash_after_seal () =
  compaction_crash_scenario `After_seal

let test_compaction_crash_after_rewrite () =
  compaction_crash_scenario `After_rewrite

let suite =
  [
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32 windowed" `Quick test_crc32_window;
    QCheck_alcotest.to_alcotest crc32_matches_reference;
    Alcotest.test_case "crc32 every start and tail" `Quick test_crc32_every_tail;
    Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "record decode garbage" `Quick test_record_decode_garbage;
    Alcotest.test_case "record encode_into at an offset" `Quick
      test_record_encode_into_offset;
    Alcotest.test_case "record filler across sizes" `Quick
      test_record_filler_sizes;
    Alcotest.test_case "record rejects unencodable fields" `Quick
      test_record_rejects_unencodable;
    Alcotest.test_case "segment roundtrip" `Quick test_segment_roundtrip;
    Alcotest.test_case "segment torn tail" `Quick test_segment_torn_tail;
    Alcotest.test_case "segment corrupt record skipped" `Quick
      test_segment_corrupt_record_skipped;
    Alcotest.test_case "segment bad magic" `Quick test_segment_bad_magic;
    Alcotest.test_case "segment short write keeps a strict prefix" `Quick
      test_segment_short_write_prefix;
    Alcotest.test_case "manifest roundtrip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "log store ops" `Quick test_log_store_ops;
    Alcotest.test_case "log store recovery" `Quick test_log_store_recovery;
    Alcotest.test_case "log store compaction" `Quick test_log_store_compaction;
    Alcotest.test_case "auto compaction on GC notifications" `Quick
      test_log_store_auto_compaction;
    Alcotest.test_case "corrupt record dropped, scan continues" `Quick
      test_log_store_corrupt_record;
    Alcotest.test_case "oversize record refused, store untouched" `Quick
      test_log_store_rejects_oversize;
    Alcotest.test_case "opening never writes" `Quick
      test_log_store_open_is_readonly;
    Alcotest.test_case "on-disk format golden" `Quick test_format_golden;
    Alcotest.test_case "crash: short write" `Quick test_crash_short_write;
    Alcotest.test_case "crash: before sync" `Quick test_crash_before_sync;
    Alcotest.test_case "crash: bit flip" `Quick test_crash_bit_flip;
    Alcotest.test_case "crash during compaction: after seal" `Quick
      test_compaction_crash_after_seal;
    Alcotest.test_case "crash during compaction: after rewrite" `Quick
      test_compaction_crash_after_rewrite;
    Alcotest.test_case "seeded fault plans replay" `Quick
      test_fault_of_seed_deterministic;
    Alcotest.test_case "e2e: n+1 bound on disk" `Quick test_runner_durable_bound;
    Alcotest.test_case "e2e: crash recovery on durable backend" `Quick
      test_runner_durable_crash_recovery;
  ]
