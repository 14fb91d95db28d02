(* Deterministic fault injection at the transport seam (DESIGN.md §15).

   The decorator intercepts [send]: each outbound frame is classified
   into (class, content key) and the fault decision is a pure keyed hash
   of (seed, link, class, key, transmission attempt) — splitmix64's
   finalizer over the tuple, no generator state, no wall clock.  Replaying
   the same config against the same frame flow reproduces the same
   schedule bit for bit, which is what makes live campaign failures
   replayable from their seed.

   Termination discipline: a frame the protocol cannot retransmit (App —
   staged delivery sends it exactly once) is never dropped, only delayed;
   a frame the protocol does retransmit (all control traffic, covered by
   the coordinator's bounded retry and the node's Hello timer) may be
   dropped, but partitions suppress only the first [pt_attempts]
   transmissions per key and stochastic drops only the first, so retries
   always punch through. *)

module Wire = Wire
module Prng = Rdt_sim.Prng
module Crc32 = Rdt_store.Crc32

type partition = {
  pt_from : int;
  pt_to : int;
  pt_start : int;
  pt_len : int;
  pt_attempts : int;
}

type config = {
  seed : int;
  drop_p : float;
  delay_p : float;
  max_delay : float;
  dup_p : float;
  corrupt_p : float;
  partitions : partition list;
}

let default =
  {
    seed = 0;
    drop_p = 0.0;
    delay_p = 0.0;
    max_delay = 0.05;
    dup_p = 0.0;
    corrupt_p = 0.0;
    partitions = [];
  }

(* --- config generation + serialization --------------------------------- *)

let gen ~seed ~n =
  let g = Prng.create ~seed:(seed lxor 0x6d736e31) in
  let maybe ~p ~lo ~hi =
    (* draw both so the stream shape is independent of the outcomes *)
    let on = Prng.bernoulli g ~p in
    let v = Prng.uniform_in g ~lo ~hi in
    if on then v else 0.0
  in
  let drop_p = maybe ~p:0.6 ~lo:0.02 ~hi:0.12 in
  let delay_p = maybe ~p:0.6 ~lo:0.03 ~hi:0.15 in
  let max_delay = Prng.uniform_in g ~lo:0.02 ~hi:0.12 in
  let dup_p = maybe ~p:0.5 ~lo:0.02 ~hi:0.10 in
  let corrupt_p = maybe ~p:0.4 ~lo:0.02 ~hi:0.08 in
  let count = Prng.int g 3 in
  let rec gen_parts k acc =
    if k = 0 then List.rev acc
    else begin
      let pt_from = Prng.int g (n + 1) - 1 in
      let rec other () =
        let v = Prng.int g (n + 1) - 1 in
        if v = pt_from then other () else v
      in
      let p =
        {
          pt_from;
          pt_to = other ();
          pt_start = Prng.int g 24;
          pt_len = 1 + Prng.int g 6;
          pt_attempts = 1 + Prng.int g 3;
        }
      in
      gen_parts (k - 1) (p :: acc)
    end
  in
  { seed; drop_p; delay_p; max_delay; dup_p; corrupt_p;
    partitions = gen_parts count [] }

let part_to_string p =
  Printf.sprintf "%d>%d@%d+%dx%d" p.pt_from p.pt_to p.pt_start p.pt_len
    p.pt_attempts

let to_string cfg =
  let parts =
    match cfg.partitions with
    | [] -> "-"
    | ps -> String.concat "," (List.map part_to_string ps)
  in
  (* %h renders the exact float bits, so of_string roundtrips losslessly *)
  Printf.sprintf "nms1 seed=0x%x drop=%h delay=%h maxd=%h dup=%h corrupt=%h part=%s"
    cfg.seed cfg.drop_p cfg.delay_p cfg.max_delay cfg.dup_p cfg.corrupt_p parts

let of_string line =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char ' ' (String.trim line) with
  | "nms1" :: fields -> begin
    let parse_part s =
      match Scanf.sscanf s "%d>%d@%d+%dx%d%!" (fun a b c d e -> (a, b, c, d, e)) with
      | pt_from, pt_to, pt_start, pt_len, pt_attempts ->
        if pt_len <= 0 || pt_attempts <= 0 || pt_start < 0 then
          Error (Printf.sprintf "nemesis: bad partition window %S" s)
        else Ok { pt_from; pt_to; pt_start; pt_len; pt_attempts }
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
        Error (Printf.sprintf "nemesis: bad partition window %S" s)
    in
    let rec go cfg = function
      | [] -> Ok cfg
      | "" :: rest -> go cfg rest
      | field :: rest -> begin
        match String.index_opt field '=' with
        | None -> fail "nemesis: bad field %S" field
        | Some i -> begin
          let k = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          let num next =
            match float_of_string_opt v with
            | Some f when f >= 0.0 -> go (next f) rest
            | _ -> fail "nemesis: bad number %S for %s" v k
          in
          match k with
          | "seed" -> begin
            match int_of_string_opt v with
            | Some seed -> go { cfg with seed } rest
            | None -> fail "nemesis: bad seed %S" v
          end
          | "drop" -> num (fun f -> { cfg with drop_p = f })
          | "delay" -> num (fun f -> { cfg with delay_p = f })
          | "maxd" -> num (fun f -> { cfg with max_delay = f })
          | "dup" -> num (fun f -> { cfg with dup_p = f })
          | "corrupt" -> num (fun f -> { cfg with corrupt_p = f })
          | "part" ->
            if String.equal v "-" then go { cfg with partitions = [] } rest
            else begin
              let rec parts acc = function
                | [] -> Ok (List.rev acc)
                | s :: more -> begin
                  match parse_part s with
                  | Ok p -> parts (p :: acc) more
                  | Error e -> Error e
                end
              in
              match parts [] (String.split_on_char ',' v) with
              | Ok partitions -> go { cfg with partitions } rest
              | Error e -> Error e
            end
          | _ -> fail "nemesis: unknown field %S" k
        end
      end
    in
    go default fields
  end
  | _ -> fail "nemesis: expected a \"nms1 ...\" line"

let pp ppf cfg =
  Format.fprintf ppf
    "seed=0x%x drop=%.3f delay=%.3f(max %.3fs) dup=%.3f corrupt=%.3f parts=[%s]"
    cfg.seed cfg.drop_p cfg.delay_p cfg.max_delay cfg.dup_p cfg.corrupt_p
    (String.concat "," (List.map part_to_string cfg.partitions))

(* --- corruption --------------------------------------------------------- *)

type style = Flip_payload | Forge_tag | Trailing

let raw_frame payload =
  let len = String.length payload in
  let out = Bytes.create (Wire.header_bytes + len) in
  Bytes.set_int32_be out 0 (Int32.of_int len);
  Bytes.set_int32_be out 4 (Crc32.string payload);
  Bytes.blit_string payload 0 out Wire.header_bytes len;
  out

let flip_payload encoded =
  let b = Bytes.copy encoded in
  let pos = Wire.header_bytes + ((Bytes.length b - Wire.header_bytes) / 2) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
  b

let garble style encoded =
  match style with
  | Flip_payload -> flip_payload encoded
  | Forge_tag -> raw_frame "\xee"
  | Trailing ->
    let plen = Bytes.length encoded - Wire.header_bytes in
    if plen + 1 > Wire.max_frame_bytes then flip_payload encoded
    else raw_frame (Bytes.sub_string encoded Wire.header_bytes plen ^ "\x00")

(* --- the pure decision core --------------------------------------------- *)

type fault = Drop | Delay of float | Duplicate | Corrupt of style

let cls_app = 0
let cls_cmd = 1
let cls_reply = 2
let cls_hello = 3

let cls_name = function
  | 0 -> "app"
  | 1 -> "cmd"
  | 2 -> "reply"
  | 3 -> "hello"
  | _ -> "?"

(* how long a partition holds an App frame (they cannot be dropped) *)
let partition_hold = 0.1

let h64 cfg ~from_ ~to_ ~cls ~key =
  let link = from_ + 2 + ((to_ + 2) * 0x10001) + (cls * 0x4000000) in
  Prng.mix
    (Int64.logxor
       (Int64.of_int cfg.seed)
       (Prng.mix
          (Int64.logxor (Int64.of_int link) (Prng.mix (Int64.of_int key)))))

let u01_of h =
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let partition_for cfg ~from_ ~to_ ~ord =
  List.find_opt
    (fun p ->
      p.pt_from = from_ && p.pt_to = to_ && ord >= p.pt_start
      && ord < p.pt_start + p.pt_len)
    cfg.partitions

let decide cfg ~from_ ~to_ ~cls ~key ~ord ~attempt =
  let h = h64 cfg ~from_ ~to_ ~cls ~key in
  let delay_of () =
    let u = u01_of (Prng.mix (Int64.logxor h 0x9E3779B97F4A7C15L)) in
    Float.max 0.005 (u *. cfg.max_delay)
  in
  match partition_for cfg ~from_ ~to_ ~ord with
  | Some p when attempt < p.pt_attempts ->
    Some (if cls = cls_app then Delay partition_hold else Drop)
  | _ ->
    if attempt > 0 then None (* retransmissions of a faulted frame pass *)
    else begin
      let u = u01_of h in
      let d1 = cfg.drop_p in
      let d2 = d1 +. cfg.delay_p in
      let d3 = d2 +. cfg.dup_p in
      let d4 = d3 +. cfg.corrupt_p in
      if u < d1 then
        (* App frames are sent exactly once and cannot be re-requested:
           losing one would wedge staged delivery, so "drop" degrades to
           a delay for them *)
        Some (if cls = cls_app then Delay (delay_of ()) else Drop)
      else if u < d2 then Some (Delay (delay_of ()))
      else if u < d3 then Some Duplicate
      else if u < d4 then begin
        let s = Int64.to_int (Prng.mix (Int64.logxor h 0x5851F42D4C957F2DL)) in
        Some
          (Corrupt
             (match (s land max_int) mod 3 with
             | 0 -> Flip_payload
             | 1 -> Forge_tag
             | _ -> Trailing))
      end
      else None
    end

(* --- the decorator ------------------------------------------------------ *)

type stats = {
  mutable st_passed : int;
  mutable st_dropped : int;
  mutable st_delayed : int;
  mutable st_duplicated : int;
  mutable st_corrupted : int;
}

type kstate = { ks_ord : int; mutable ks_attempts : int }

type link = {
  lk_keys : (int, kstate) Hashtbl.t;  (* (key lsl 3) lor cls -> state *)
  mutable lk_next_ord : int;
}

type held = { hd_dst : int; hd_frame : Wire.frame }

type t = {
  cfg : config;
  inner : Transport.t;
  stats : stats;
  links : (int, link) Hashtbl.t;  (* dst -> link state *)
  held : (int, held) Hashtbl.t;  (* timer id -> frame awaiting release *)
  mutable next_timer : int;
  mutable owner : (Transport.event -> unit) option;
  mutable log : string list;  (* newest first *)
}

let timer_base = 0x40000000

let stats t = t.stats
let schedule t = List.rev t.log
let flush_held t = Hashtbl.reset t.held

let link_of t dst =
  match Hashtbl.find_opt t.links dst with
  | Some lk -> lk
  | None ->
    let lk = { lk_keys = Hashtbl.create 32; lk_next_ord = 0 } in
    Hashtbl.replace t.links dst lk;
    lk

let fault_name = function
  | None -> "pass"
  | Some Drop -> "drop"
  | Some (Delay d) -> Printf.sprintf "delay=%.3f" d
  | Some Duplicate -> "dup"
  | Some (Corrupt Flip_payload) -> "corrupt:flip"
  | Some (Corrupt Forge_tag) -> "corrupt:tag"
  | Some (Corrupt Trailing) -> "corrupt:trailing"

let send t ~dst frame =
  match frame with
  | Wire.Ident _ ->
    (* the link-mapping preamble is the one frame faults may not touch *)
    Transport.send t.inner ~dst frame
  | _ ->
    let lk = link_of t dst in
    let cls, key =
      match frame with
      | Wire.App { msg_id; src; _ } -> (cls_app, (msg_id lsl 8) lor (src land 0xff))
      | Wire.Cmd { seq; _ } -> (cls_cmd, seq)
      | Wire.Reply { seq; _ } -> (cls_reply, seq)
      | Wire.Hello { port; _ } -> (cls_hello, port)
      | Wire.Ident _ -> assert false
    in
    let ck = (key lsl 3) lor cls in
    let ks =
      match Hashtbl.find_opt lk.lk_keys ck with
      | Some ks -> ks
      | None ->
        let ks = { ks_ord = lk.lk_next_ord; ks_attempts = 0 } in
        lk.lk_next_ord <- lk.lk_next_ord + 1;
        Hashtbl.replace lk.lk_keys ck ks;
        ks
    in
    let attempt = ks.ks_attempts in
    ks.ks_attempts <- attempt + 1;
    let from_ = Transport.me t.inner in
    let fault =
      decide t.cfg ~from_ ~to_:dst ~cls ~key ~ord:ks.ks_ord ~attempt
    in
    t.log <-
      Printf.sprintf "%d>%d %s key=%d ord=%d att=%d %s" from_ dst
        (cls_name cls) key ks.ks_ord attempt (fault_name fault)
      :: t.log;
    (match fault with
    | None ->
      t.stats.st_passed <- t.stats.st_passed + 1;
      Transport.send t.inner ~dst frame
    | Some Drop -> t.stats.st_dropped <- t.stats.st_dropped + 1
    | Some (Delay d) ->
      t.stats.st_delayed <- t.stats.st_delayed + 1;
      let id = timer_base + t.next_timer in
      t.next_timer <- t.next_timer + 1;
      Hashtbl.replace t.held id { hd_dst = dst; hd_frame = frame };
      Transport.set_timer t.inner ~id ~after:d
    | Some Duplicate ->
      t.stats.st_duplicated <- t.stats.st_duplicated + 1;
      Transport.send t.inner ~dst frame;
      Transport.send t.inner ~dst frame
    | Some (Corrupt style) ->
      t.stats.st_corrupted <- t.stats.st_corrupted + 1;
      (* a garbled copy precedes the intact frame: the receiver must
         report a decode error and resynchronize, and the run's
         semantics must be unchanged *)
      Transport.send_raw t.inner ~dst (garble style (Wire.encode frame));
      Transport.send t.inner ~dst frame)

let intercept t ev =
  match ev with
  | Transport.Timer { id } when id >= timer_base -> begin
    match Hashtbl.find_opt t.held id with
    | Some h ->
      Hashtbl.remove t.held id;
      Transport.send t.inner ~dst:h.hd_dst h.hd_frame
    | None -> ()  (* flushed: the endpoint was killed while this hung *)
  end
  | ev -> ( match t.owner with Some f -> f ev | None -> ())

let wrap cfg inner =
  let t =
    {
      cfg;
      inner;
      stats =
        { st_passed = 0; st_dropped = 0; st_delayed = 0; st_duplicated = 0;
          st_corrupted = 0 };
      links = Hashtbl.create 8;
      held = Hashtbl.create 8;
      next_timer = 0;
      owner = None;
      log = [];
    }
  in
  let tr =
    {
      inner with
      Transport.send = (fun ~dst frame -> send t ~dst frame);
      set_handler =
        (fun f ->
          t.owner <- Some f;
          Transport.set_handler inner (intercept t));
    }
  in
  (t, tr)
