(* Wire-format tests: one unit test per decode failure mode, a golden
   frame pinning the byte layout, and a qcheck encode/decode identity
   over random frames (piggybacked DVs, control payloads, random n). *)

module Wire = Rdt_transport.Wire
module Crc32 = Rdt_store.Crc32

let frame_eq a b =
  (* the encoding is a total injective function of the frame, so encoded
     equality is structural equality without a handwritten deep compare *)
  String.equal (Wire.encode_payload a) (Wire.encode_payload b)

let check_error what expected = function
  | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" what
  | Error e ->
    Alcotest.(check string) what expected (Wire.error_to_string e)

let sample_app =
  Wire.App { epoch = 1; msg_id = 5; src = 2; dv = [| 1; 2; 3 |]; index = 4 }

(* --- failure modes ------------------------------------------------------ *)

let test_oversized () =
  let b = Bytes.create Wire.header_bytes in
  Bytes.set_int32_be b 0 (Int32.of_int (Wire.max_frame_bytes + 1));
  Bytes.set_int32_be b 4 0l;
  check_error "oversized length is rejected before any read"
    (Printf.sprintf "frame length %d exceeds limit %d"
       (Wire.max_frame_bytes + 1) Wire.max_frame_bytes)
    (Wire.decode b)

let test_bad_length () =
  let b = Bytes.create Wire.header_bytes in
  Bytes.set_int32_be b 0 0xFFFFFFF6l (* u32 garbage surfaces negative *);
  Bytes.set_int32_be b 4 0l;
  check_error "negative length prefix is garbage" "garbage frame length -10"
    (Wire.decode b)

let test_crc_mismatch () =
  let b = Wire.encode sample_app in
  let pos = Wire.header_bytes + 9 (* inside the epoch field *) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  (match Wire.decode b with
  | Error (Wire.Crc_mismatch { expected; actual }) ->
    Alcotest.(check bool) "crc values differ" false (Int32.equal expected actual)
  | Error e ->
    Alcotest.failf "wrong error for corrupt payload: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupt payload decoded");
  (* header corruption on the crc side is the same failure *)
  let b = Wire.encode sample_app in
  Bytes.set_int32_be b 4 (Int32.lognot (Bytes.get_int32_be b 4));
  match Wire.decode b with
  | Error (Wire.Crc_mismatch _) -> ()
  | Error e ->
    Alcotest.failf "wrong error for corrupt header crc: %s"
      (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupt header crc decoded"

let test_truncated () =
  (* too short even for a header *)
  (match Wire.decode (Bytes.create 3) with
  | Error (Wire.Truncated { wanted; have }) ->
    Alcotest.(check int) "header wanted" Wire.header_bytes wanted;
    Alcotest.(check int) "header have" 3 have
  | _ -> Alcotest.fail "3-byte buffer accepted");
  (* header complete, body cut short *)
  let b = Wire.encode sample_app in
  match Wire.decode (Bytes.sub b 0 (Bytes.length b - 1)) with
  | Error (Wire.Truncated _) -> ()
  | Error e ->
    Alcotest.failf "wrong error for short body: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "short body decoded"

let raw_frame payload =
  let out = Bytes.create (Wire.header_bytes + String.length payload) in
  Bytes.set_int32_be out 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_be out 4 (Crc32.string payload);
  Bytes.blit_string payload 0 out Wire.header_bytes (String.length payload);
  out

let test_bad_tag () =
  (* tags 3 and 4 are unassigned: they must stay unknown *)
  List.iter
    (fun tag ->
      check_error "unknown frame tag"
        (Printf.sprintf "unknown frame tag 0x%02x" tag)
        (Wire.decode (raw_frame (String.make 1 (Char.chr tag)))))
    [ 0x03; 0x04; 0x2a ]

let test_malformed () =
  (* valid frame, trailing garbage inside the CRC-covered payload *)
  check_error "trailing bytes are rejected"
    "malformed frame: 1 trailing bytes after frame"
    (Wire.decode (raw_frame (Wire.encode_payload (Wire.Ident { pid = 3 }) ^ "\x00")));
  (* a count field beyond any plausible cluster size *)
  let b = Buffer.create 32 in
  Buffer.add_uint8 b 0 (* App *);
  for _ = 1 to 3 do
    Buffer.add_int64_be b 0L
  done;
  Buffer.add_int64_be b 0x7FFFFFFFL (* dv length *);
  check_error "giant element count is malformed, not an allocation"
    "malformed frame: array count 2147483647 out of range"
    (Wire.decode (raw_frame (Buffer.contents b)))

(* --- golden layout ------------------------------------------------------ *)

let golden_hex =
  (* u32 len | u32 crc | tag | epoch | msg_id | src | #dv dv0 dv1 dv2 | index,
     all ints i64 big-endian.  Pinned: a change here is a wire-format
     break and needs a version bump, not a test update. *)
  "00000041c5d2d28c"
  ^ "00" (* App tag *)
  ^ "0000000000000001" (* epoch *)
  ^ "0000000000000005" (* msg_id *)
  ^ "0000000000000002" (* src *)
  ^ "0000000000000003" (* dv count *)
  ^ "000000000000000100000000000000020000000000000003" (* dv *)
  ^ "0000000000000004" (* index *)

let test_golden () =
  let hex b =
    String.concat ""
      (List.map (Printf.sprintf "%02x")
         (List.map Char.code (List.of_seq (Bytes.to_seq b))))
  in
  Alcotest.(check string) "pinned App frame bytes" golden_hex
    (hex (Wire.encode sample_app))

(* --- qcheck roundtrip --------------------------------------------------- *)

let gen_frame =
  let open QCheck.Gen in
  let small_int = map Int64.to_int (map Int64.of_int (int_bound 1000)) in
  let gen_dv n = array_size (return n) small_int in
  let gen_uc n =
    array_size (return n) (oneof [ return None; map Option.some small_int ])
  in
  let gen_state n =
    let* st_dv = gen_dv n in
    let* st_uc = gen_uc n in
    let* st_retained = array_size (int_bound 4) small_int in
    let* st_app = small_int in
    return { Wire.st_dv; st_uc; st_retained; st_app }
  in
  let gen_tev =
    oneof
      [
        map (fun index -> Wire.T_ckpt { index }) small_int;
        (let* msg_id = small_int in
         let* dst = small_int in
         return (Wire.T_send { msg_id; dst }));
        (let* msg_id = small_int in
         let* src = small_int in
         return (Wire.T_recv { msg_id; src }));
      ]
  in
  let gen_tevs = list_size (int_bound 5) gen_tev in
  let gen_cmd n =
    oneof
      [
        return Wire.C_checkpoint;
        map (fun dst -> Wire.C_send { dst }) small_int;
        (let* src = small_int in
         let* msg_id = small_int in
         return (Wire.C_deliver { src; msg_id }));
        (let* src = small_int in
         let* msg_id = small_int in
         return (Wire.C_drop { src; msg_id }));
        map (fun epoch -> Wire.C_flush { epoch }) small_int;
        return Wire.C_snapshot;
        (let* to_index = small_int in
         let* li = oneof [ return None; map Option.some (gen_dv n) ] in
         return (Wire.C_rollback { to_index; li }));
        map (fun li -> Wire.C_release { li }) (gen_dv n);
        return Wire.C_state;
        return Wire.C_shutdown;
        (let* protocol = string_printable in
         let* epoch = small_int in
         let* ports = gen_dv n in
         let* history = gen_tevs in
         let* sends_ever = small_int in
         return
           (Wire.C_config { n; protocol; epoch; ports; history; sends_ever }));
      ]
  in
  let gen_entry n =
    let* index = small_int in
    let* dv = gen_dv n in
    let* taken_at = map float_of_int small_int in
    let* size_bytes = small_int in
    let* payload = small_int in
    return
      { Rdt_storage.Stable_store.index; dv; taken_at; size_bytes; payload }
  in
  let gen_reply n =
    oneof
      [
        (let* events = gen_tevs in
         let* state = gen_state n in
         return (Wire.R_done { events; state }));
        (let* msg_id = small_int in
         let* events = gen_tevs in
         let* state = gen_state n in
         return (Wire.R_sent { msg_id; events; state }));
        (let* entries = list_size (int_bound 3) (gen_entry n) in
         let* live_dv = gen_dv n in
         let* last = small_int in
         return (Wire.R_snapshot { entries; live_dv; last }));
        map (fun state -> Wire.R_state { state }) (gen_state n);
        map (fun message -> Wire.R_error { message }) string_printable;
      ]
  in
  let* n = int_range 1 8 in
  oneof
    [
      (let* epoch = small_int in
       let* msg_id = small_int in
       let* src = small_int in
       let* dv = gen_dv n in
       let* index = small_int in
       return (Wire.App { epoch; msg_id; src; dv; index }));
      map (fun pid -> Wire.Ident { pid }) small_int;
      (let* pid = small_int in
       let* port = small_int in
       let* recovering = bool in
       return (Wire.Hello { pid; port; recovering }));
      (let* seq = small_int in
       let* now = map float_of_int small_int in
       let* cmd = gen_cmd n in
       return (Wire.Cmd { seq; now; cmd }));
      (let* seq = small_int in
       let* reply = gen_reply n in
       return (Wire.Reply { seq; reply }));
    ]

let qcheck_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode identity"
    (QCheck.make gen_frame) (fun frame ->
      match Wire.decode (Wire.encode frame) with
      | Error e -> QCheck.Test.fail_reportf "%s" (Wire.error_to_string e)
      | Ok (decoded, consumed) ->
        consumed = Bytes.length (Wire.encode frame) && frame_eq frame decoded)

(* every nemesis corruption style must keep the length prefix sound (so
   a receiver can resynchronize at the next frame) while failing decode
   with its advertised error class *)
let qcheck_garble =
  let module Nemesis = Rdt_transport.Nemesis in
  let gen =
    QCheck.Gen.(
      pair gen_frame
        (oneofl
           [ Nemesis.Flip_payload; Nemesis.Forge_tag; Nemesis.Trailing ]))
  in
  QCheck.Test.make ~count:300 ~name:"garble styles fail with their class"
    (QCheck.make gen) (fun (frame, style) ->
      let g = Nemesis.garble style (Wire.encode frame) in
      let header_ok =
        match Wire.decode_header g ~pos:0 ~len:(Bytes.length g) with
        | Ok h -> Wire.header_bytes + h.Wire.h_len = Bytes.length g
        | Error _ -> false
      in
      let class_ok =
        match (Wire.decode g, style) with
        | Error (Wire.Crc_mismatch _), Nemesis.Flip_payload -> true
        | Error (Wire.Bad_tag _), Nemesis.Forge_tag -> true
        | Error (Wire.Malformed _), Nemesis.Trailing -> true
        | _ -> false
      in
      header_ok && class_ok)

let test_streaming () =
  (* two frames back to back: decode consumes exactly the first *)
  let a = Wire.encode sample_app in
  let second =
    Wire.Cmd
      {
        seq = 7;
        now = 0.0;
        cmd =
          Wire.C_config
            { n = 2; protocol = "fdas"; epoch = 1; ports = [| 0; 0 |];
              history = [ Wire.T_ckpt { index = 1 } ]; sends_ever = 3 };
      }
  in
  let b = Wire.encode second in
  let cat = Bytes.cat a b in
  match Wire.decode cat with
  | Error e -> Alcotest.failf "decode: %s" (Wire.error_to_string e)
  | Ok (frame, consumed) ->
    Alcotest.(check int) "consumed first frame" (Bytes.length a) consumed;
    Alcotest.(check bool) "decoded first frame" true (frame_eq frame sample_app);
    (match Wire.decode (Bytes.sub cat consumed (Bytes.length cat - consumed)) with
    | Ok (frame, rest) ->
      Alcotest.(check int) "consumed second frame" (Bytes.length b) rest;
      Alcotest.(check bool) "decoded second frame" true
        (frame_eq frame second)
    | Error e -> Alcotest.failf "second decode: %s" (Wire.error_to_string e))

let suite =
  [
    Alcotest.test_case "oversized length prefix" `Quick test_oversized;
    Alcotest.test_case "garbage length prefix" `Quick test_bad_length;
    Alcotest.test_case "crc mismatch (payload and header)" `Quick
      test_crc_mismatch;
    Alcotest.test_case "truncated header and body" `Quick test_truncated;
    Alcotest.test_case "unknown frame tag" `Quick test_bad_tag;
    Alcotest.test_case "malformed payloads" `Quick test_malformed;
    Alcotest.test_case "golden frame layout" `Quick test_golden;
    Alcotest.test_case "back-to-back frames stream" `Quick test_streaming;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_garble;
  ]
