module Trace = Rdt_ccp.Trace
module Ccp = Rdt_ccp.Ccp
module VC = Rdt_causality.Vector_clock

let ck pid index : Ccp.ckpt = { pid; index }

let test_trace_building () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Alcotest.(check int) "s0 recorded" 0 (Helpers.last_checkpoint t ~pid:0);
  Trace.checkpoint t 0;
  Alcotest.(check int) "s1 recorded" 1 (Helpers.last_checkpoint t ~pid:0);
  Alcotest.(check int) "p1 untouched" 0 (Helpers.last_checkpoint t ~pid:1)

let test_seq_monotone () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Trace.message t ~src:0 ~dst:1;
  Trace.checkpoint t 1;
  let seqs = List.map (fun (e : Helpers.event) -> e.seq) (Helpers.events t) in
  Alcotest.(check (list int)) "sorted unique" (List.sort_uniq compare seqs) seqs

let test_ccp_shape () =
  let t = Trace.init_with_initial_checkpoints ~n:3 in
  Trace.checkpoint t 0;
  Trace.checkpoint t 0;
  Trace.message t ~src:0 ~dst:2;
  let ccp = Ccp.of_trace t in
  Alcotest.(check int) "last stable p0" 2 (Ccp.last_stable ccp 0);
  Alcotest.(check int) "volatile p0" 3 (Ccp.volatile_index ccp 0);
  Alcotest.(check int) "last stable p1" 0 (Ccp.last_stable ccp 1);
  Alcotest.(check int) "one message" 1 (Array.length (Ccp.messages ccp));
  Alcotest.(check int) "checkpoint count incl volatiles" (4 + 2 + 2)
    (List.length (Ccp.checkpoints ccp));
  Alcotest.(check int) "stable count" (3 + 1 + 1)
    (List.length (Helpers.stable_checkpoints ccp))

let test_causality_direct_message () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Trace.message t ~src:0 ~dst:1;
  Trace.checkpoint t 1;
  let ccp = Ccp.of_trace t in
  Alcotest.(check bool) "s0_0 -> s1_1" true (Ccp.precedes ccp (ck 0 0) (ck 1 1));
  Alcotest.(check bool) "s0_1 -/-> s1_1's sender" false
    (Ccp.precedes ccp (ck 1 0) (ck 0 0));
  Alcotest.(check bool) "local order" true (Ccp.precedes ccp (ck 1 0) (ck 1 1))

let test_causality_transitive () =
  let t = Trace.init_with_initial_checkpoints ~n:3 in
  Trace.checkpoint t 0;
  Trace.message t ~src:0 ~dst:1;
  Trace.message t ~src:1 ~dst:2;
  Trace.checkpoint t 2;
  let ccp = Ccp.of_trace t in
  Alcotest.(check bool) "s1_0 -> s1_2 transitively" true
    (Ccp.precedes ccp (ck 0 1) (ck 2 1));
  Alcotest.(check bool) "s1_2 -/-> s1_0" false
    (Ccp.precedes ccp (ck 2 1) (ck 0 1))

let test_volatile_precedence () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Trace.message t ~src:0 ~dst:1;
  let ccp = Ccp.of_trace t in
  let v0 = Helpers.volatile ccp 0 and v1 = Helpers.volatile ccp 1 in
  Alcotest.(check bool) "own stable -> volatile" true
    (Ccp.precedes ccp (ck 0 0) v0);
  Alcotest.(check bool) "s0_0 -> v1 via message" true
    (Ccp.precedes ccp (ck 0 0) v1);
  Alcotest.(check bool) "volatile precedes nothing" false
    (Ccp.precedes ccp v0 v1);
  Alcotest.(check bool) "volatile not self-preceding" false
    (Ccp.precedes ccp v0 v0)

let test_consistent_pair () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Trace.message t ~src:0 ~dst:1;
  Trace.checkpoint t 1;
  let ccp = Ccp.of_trace t in
  (* consistent: neither precedes the other (Section 2.2) *)
  let consistent a b = not (Ccp.precedes ccp a b || Ccp.precedes ccp b a) in
  Alcotest.(check bool) "initials consistent" true
    (consistent (ck 0 0) (ck 1 0));
  Alcotest.(check bool) "dependent pair inconsistent" false
    (consistent (ck 0 0) (ck 1 1))

let test_in_transit_excluded () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  let _unreceived = Trace.send t ~src:0 ~dst:1 in
  let ccp = Ccp.of_trace t in
  Alcotest.(check int) "no delivered messages" 0 (Array.length (Ccp.messages ccp));
  (* an undelivered send creates no dependency *)
  Alcotest.(check bool) "no causality" false
    (Ccp.precedes ccp (ck 0 0) (Helpers.volatile ccp 1))

let test_orphan_receive_rejected () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Trace.record_receive t ~pid:1 ~msg_id:999 ~src:0;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Ccp.of_trace t);
       false
     with Invalid_argument _ -> true)

let test_truncation () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  let m = Trace.send t ~src:0 ~dst:1 in
  Trace.receive t ~msg_id:m ~src:0 ~dst:1;
  Trace.checkpoint t 0;
  Trace.checkpoint t 0;
  (* roll p0 back to s1: erases its second checkpoint but keeps the send *)
  Trace.truncate_to_checkpoint t ~pid:0 ~index:1;
  let ccp = Ccp.of_trace t in
  Alcotest.(check int) "p0 back to s1" 1 (Ccp.last_stable ccp 0);
  Alcotest.(check int) "message survives" 1 (Array.length (Ccp.messages ccp))

let test_truncation_erases_send () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Trace.checkpoint t 0;
  let m = Trace.send t ~src:0 ~dst:1 in
  (* roll p0 back before the send, message still in flight: the send
     disappears, and a later receive would be an orphan *)
  Trace.truncate_to_checkpoint t ~pid:0 ~index:0;
  Trace.receive t ~msg_id:m ~src:0 ~dst:1;
  Alcotest.(check bool) "orphan detected" true
    (try
       ignore (Ccp.of_trace t);
       false
     with Invalid_argument _ -> true)

let test_truncate_missing_checkpoint () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Alcotest.(check bool) "raises" true
    (try
       Trace.truncate_to_checkpoint t ~pid:0 ~index:7;
       false
     with Invalid_argument _ -> true)

(* Property: on random traces, Ccp.precedes agrees with a recomputation
   from scratch over the event linearization (vector-clock transitivity
   sanity). *)
let prop_precedes_vs_reachability =
  QCheck.Test.make ~name:"ccp precedes is a strict partial order" ~count:60
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 2 5)))
    (fun (seed, n) ->
      let trace = Helpers.random_trace ~seed ~n ~ops:60 in
      let ccp = Ccp.of_trace trace in
      let cs = Ccp.checkpoints ccp in
      List.for_all
        (fun a ->
          (not (Ccp.precedes ccp a a))
          && List.for_all
               (fun b ->
                 List.for_all
                   (fun c ->
                     (* transitivity *)
                     (not (Ccp.precedes ccp a b && Ccp.precedes ccp b c))
                     || Ccp.precedes ccp a c)
                   cs)
               cs)
        cs)

let test_serialization_roundtrip () =
  let original = Helpers.random_trace ~seed:77 ~n:4 ~ops:80 in
  let path = Filename.temp_file "rdtgc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save original path;
      let reloaded = Trace.load path in
      let dump t =
        List.map
          (fun (e : Helpers.event) -> (e.pid, e.tag, e.peer, e.payload))
          (Helpers.events t)
      in
      Alcotest.(check bool) "same events in order" true
        (dump original = dump reloaded);
      (* the reloaded trace builds the same CCP *)
      let c1 = Ccp.of_trace original and c2 = Ccp.of_trace reloaded in
      Alcotest.(check int) "same messages"
        (Array.length (Ccp.messages c1))
        (Array.length (Ccp.messages c2));
      for pid = 0 to 3 do
        Alcotest.(check int) "same last stable" (Ccp.last_stable c1 pid)
          (Ccp.last_stable c2 pid)
      done;
      (* and fresh message ids do not collide with reloaded ones *)
      let id = Trace.fresh_msg_id reloaded ~pid:0 in
      Alcotest.(check bool) "fresh id beyond the loaded ones" true
        (List.for_all
           (fun (e : Helpers.event) ->
             match e.tag with
             | Trace.Send | Trace.Receive -> e.payload < id
             | Trace.Checkpoint -> true)
           (Helpers.events reloaded)))

let test_to_string_matches_save () =
  let saved_bytes t =
    let path = Filename.temp_file "rdtgc" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace.save t path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  let t = Rdt_scenarios.Script.trace (Rdt_scenarios.Figures.figure4 ()) in
  Alcotest.(check string) "figure 4 trace" (saved_bytes t) (Trace.to_string t);
  Trace.truncate_to_checkpoint t ~pid:1 ~index:1;
  Alcotest.(check string) "after truncate_to_checkpoint" (saved_bytes t)
    (Trace.to_string t)

let test_load_rejects_garbage () =
  let path = Filename.temp_file "rdtgc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Trace.load path);
           false
         with Failure _ -> true))

let test_diagram_shape () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Trace.message t ~src:0 ~dst:1;
  Trace.checkpoint t 1;
  let rendered = Helpers.stdout_of (fun () -> Rdt_ccp.Diagram.print t) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' rendered)
  in
  Alcotest.(check int) "one row per process" 2 (List.length lines);
  (* all rows equally wide *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned rows" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.(check bool) "send rendered" true
    (String.length rendered > 0
    &&
    let re_found needle haystack =
      let nl = String.length needle and hl = String.length haystack in
      let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
      scan 0
    in
    re_found "m0>" rendered && re_found ">m0" rendered && re_found "[1]" rendered)

let test_diagram_truncation () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  for _ = 1 to 100 do
    Trace.message t ~src:0 ~dst:1
  done;
  let rendered =
    Helpers.stdout_of (fun () -> Rdt_ccp.Diagram.print ~max_events:10 t)
  in
  Alcotest.(check bool) "notes the omission" true
    (String.length rendered > 0 && String.get rendered 0 = '.')

(* the k-way merge in [iter] must cope with a process whose log is empty
   (no column storage allocated) ahead of non-empty ones, and walk the
   logs in record order, not pid order *)
let test_iter_empty_first_process () =
  let t = Trace.create ~n:3 in
  Trace.record_checkpoint t ~pid:2 ~index:0;
  Trace.record_checkpoint t ~pid:1 ~index:0;
  let evs = Helpers.events t in
  Alcotest.(check int) "both records read" 2 (List.length evs);
  Alcotest.(check (list int))
    "record order, not pid order" [ 2; 1 ]
    (List.map (fun (e : Helpers.event) -> e.pid) evs)

(* --- packed-code range checks --------------------------------------- *)

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_record_rejects_unpackable () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  let before = Trace.to_string t in
  let big = Helpers.max_payload ~n:2 + 1 in
  List.iter
    (fun (what, f) -> Alcotest.(check bool) what true (raises_invalid f))
    [
      ("dst = n", fun () -> Trace.record_send t ~pid:0 ~msg_id:0 ~dst:2);
      ("dst < 0", fun () -> Trace.record_send t ~pid:0 ~msg_id:0 ~dst:(-1));
      ("src = n", fun () -> Trace.record_receive t ~pid:1 ~msg_id:0 ~src:2);
      ("src < 0", fun () -> Trace.record_receive t ~pid:1 ~msg_id:0 ~src:(-1));
      ("pid = n", fun () -> Trace.record_checkpoint t ~pid:2 ~index:1);
      ("index too wide", fun () -> Trace.record_checkpoint t ~pid:0 ~index:big);
      ("index < 0", fun () -> Trace.record_checkpoint t ~pid:0 ~index:(-1));
      ("msg id too wide", fun () -> Trace.record_send t ~pid:0 ~msg_id:big ~dst:1);
      ("msg id < 0", fun () -> Trace.record_receive t ~pid:1 ~msg_id:(-1) ~src:0);
    ];
  Alcotest.(check string) "nothing stored" before (Trace.to_string t);
  (* the widest values that fit round-trip intact *)
  let top = Helpers.max_payload ~n:2 in
  Trace.record_send t ~pid:1 ~msg_id:top ~dst:1;
  Trace.record_checkpoint t ~pid:1 ~index:top;
  Alcotest.(check (list (pair int int)))
    "peer n-1 and max payload decode" [ (1, top); (0, top) ]
    (List.filteri (fun i _ -> i >= 1)
       (List.map
          (fun (e : Helpers.event) -> (e.peer, e.payload))
          (Helpers.events_of t ~pid:1)));
  Alcotest.(check int) "max index is last" top (Helpers.last_checkpoint t ~pid:1)

let load_string text =
  let path = Filename.temp_file "rdtgc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Trace.load path)

let test_load_rejects_unpackable () =
  let big = string_of_int (Helpers.max_payload ~n:2 + 1) in
  List.iter
    (fun line ->
      Alcotest.check_raises line
        (Failure (Printf.sprintf "Trace.of_channel: bad line %S" line))
        (fun () -> ignore (load_string ("rdtgc-trace 1\nn 2\nC 0 0\n" ^ line ^ "\n"))))
    [
      "S 0 0 9"; "S 0 0 -1"; "R 1 0 2"; "C 0 " ^ big; "S 0 " ^ big ^ " 1";
      "C 2 0"; "C 0 -1"; "C 0"; "C 0 99999999999999999999999";
    ]

(* A loaded trace's sends move every process's id counter past the
   largest loaded id, even one that is not [k * n + pid] for its sender
   (16 is 5 * 3 + 1, sent by p0): each pid's next id is the first of its
   own past 16, and nothing a loaded send carries is minted again. *)
let test_load_moves_msg_ids_past () =
  let t =
    load_string
      "rdtgc-trace 1\nn 3\nC 0 0\nC 1 0\nC 2 0\nS 1 4 2\nS 0 16 2\nS 2 11 0\n\
       R 2 16 0\nS 1 7 0\n"
  in
  let loaded = [ 4; 16; 11; 7 ] in
  List.iter
    (fun pid ->
      let id = Trace.fresh_msg_id t ~pid in
      Alcotest.(check int) (Printf.sprintf "p%d's next id" pid) (18 + pid) id;
      Alcotest.(check bool)
        (Printf.sprintf "p%d mints past every loaded id" pid)
        true
        (List.for_all (fun l -> l < id) loaded))
    [ 0; 1; 2 ]

(* --- allocation guard ------------------------------------------------ *)

(* Exact minor words ([Gc.minor_words], not the quantised
   [Gc.quick_stat]) per recorded event, after a warm-up that grows every
   process's first chunk to full size. *)
let minor_words_per_event t =
  let n = Trace.n t in
  let record count =
    for i = 0 to count - 1 do
      let pid = i mod n in
      Trace.record_send t ~pid ~msg_id:i ~dst:((pid + 1) mod n)
    done
  in
  record 20_000;
  let events = 100_000 in
  let w0 = Gc.minor_words () in
  record events;
  (Gc.minor_words () -. w0) /. float_of_int events

let test_record_allocation () =
  let quiet = Trace.create ~n:4 in
  let w = minor_words_per_event quiet in
  if w >= 0.1 then Alcotest.failf "recording: %.3f minor words/event" w;
  let watched = Trace.create ~n:4 in
  let seen = ref 0 in
  Trace.on_event watched (fun _ -> incr seen);
  let w = minor_words_per_event watched in
  if w >= 0.1 then Alcotest.failf "delivering to a subscriber: %.3f minor words/event" w;
  Alcotest.(check int) "every event delivered" 120_000 !seen

(* --- muted traces ------------------------------------------------------ *)

(* A muted trace stores nothing and cuts nothing, yet its subscribers see
   the events a recording trace's see, with the same message ids. *)
let test_muted_trace_notifies () =
  let n = 3 in
  let run ~recording =
    let t = Trace.create ~n in
    Trace.set_recording t recording;
    let seen = ref [] and cuts = ref 0 in
    Trace.on_event t (fun v ->
        seen :=
          Trace.View.(pid v, tag v, peer v, payload v) :: !seen);
    Trace.on_truncate t (fun ~pid:_ -> incr cuts);
    for pid = 0 to n - 1 do
      Trace.record_checkpoint t ~pid ~index:0
    done;
    Trace.message t ~src:0 ~dst:1;
    Trace.record_checkpoint t ~pid:1 ~index:1;
    Trace.message t ~src:1 ~dst:2;
    ignore (Trace.send t ~src:1 ~dst:0);
    Trace.truncate_to_checkpoint t ~pid:1 ~index:1;
    Trace.message t ~src:1 ~dst:0;
    (t, List.rev !seen, !cuts)
  in
  let recorded, recorded_events, recorded_cuts = run ~recording:true in
  let muted, muted_events, muted_cuts = run ~recording:false in
  Alcotest.(check int) "every event delivered" 11 (List.length muted_events);
  Alcotest.(check bool) "same (pid, tag, peer, payload) stream" true
    (recorded_events = muted_events);
  Alcotest.(check int) "same next id" (Trace.fresh_msg_id recorded ~pid:1)
    (Trace.fresh_msg_id muted ~pid:1);
  Alcotest.(check int) "recording trace cut once" 1 recorded_cuts;
  Alcotest.(check int) "muted truncation fires nothing" 0 muted_cuts;
  Alcotest.(check int) "muted trace stores nothing" 0 (Trace.length muted);
  (* nothing stored, so no checkpoint is missing either *)
  Trace.truncate_to_checkpoint muted ~pid:2 ~index:7

(* --- model-based property -------------------------------------------- *)

(* Random sequences of records and truncations checked against a plain
   list model: per-process logs (newest first) whose seqs are assigned at
   record time. *)
type m_event = {
  m_seq : int;
  m_pid : int;
  m_tag : Trace.tag;
  m_peer : int;
  m_payload : int;
}

type model = {
  m_logs : m_event list array;
  mutable m_next_seq : int;
  m_last_ckpt : int array;
}

type op = { kind : int; a : int; b : int; c : int }

let print_op o = Printf.sprintf "{kind=%d a=%d b=%d c=%d}" o.kind o.a o.b o.c

let expect_invalid what f =
  if not (raises_invalid f) then QCheck.Test.fail_reportf "%s did not raise" what

let run_model ~n ops =
  let t = Trace.create ~n in
  let m = { m_logs = Array.make n []; m_next_seq = 0; m_last_ckpt = Array.make n (-1) } in
  let top = Helpers.max_payload ~n in
  (* pid n-1 and the widest payload are picked often; n and top + 1 now
     and then, which the trace must reject untouched *)
  let pick x = if x mod 3 = 0 then n - 1 else if x mod 23 = 0 then n else x mod n in
  let payload_of x = match x mod 5 with 0 -> top | 1 -> top + 1 | 2 -> 0 | _ -> x in
  let valid pid peer payload =
    pid < n && peer < n && payload >= 0 && payload <= top
  in
  let record pid tag peer payload =
    let go () =
      match tag with
      | Trace.Checkpoint -> Trace.record_checkpoint t ~pid ~index:payload
      | Trace.Send -> Trace.record_send t ~pid ~msg_id:payload ~dst:peer
      | Trace.Receive -> Trace.record_receive t ~pid ~msg_id:payload ~src:peer
    in
    if not (valid pid peer payload) then expect_invalid "out-of-range record" go
    else begin
      go ();
      let e =
        { m_seq = m.m_next_seq; m_pid = pid; m_tag = tag; m_peer = peer; m_payload = payload }
      in
      m.m_next_seq <- m.m_next_seq + 1;
      m.m_logs.(pid) <- e :: m.m_logs.(pid);
      if tag = Trace.Checkpoint then m.m_last_ckpt.(pid) <- payload
    end
  in
  let step o =
    match o.kind with
    | 0 ->
      let pid = pick o.a in
      let index =
        match o.b mod 3 with
        | 0 when pid < n -> m.m_last_ckpt.(pid) + 1
        | 1 -> payload_of o.c
        | _ -> 0
      in
      record pid Trace.Checkpoint 0 index
    | 1 -> record (pick o.a) Trace.Send (pick o.b) (payload_of o.c)
    | 2 -> record (pick o.a) Trace.Receive (pick o.b) (payload_of o.c)
    | _ ->
      let pid = o.a mod n in
      let ckpts =
        List.filter_map
          (fun e -> if e.m_tag = Trace.Checkpoint then Some e.m_payload else None)
          m.m_logs.(pid)
      in
      let index =
        if ckpts = [] || o.b mod 4 = 0 then o.c mod 7
        else List.nth ckpts (o.c mod List.length ckpts)
      in
      if List.mem index ckpts then begin
        Trace.truncate_to_checkpoint t ~pid ~index;
        let rec cut = function
          | e :: rest when e.m_tag = Trace.Checkpoint && e.m_payload = index -> e :: rest
          | _ :: rest -> cut rest
          | [] -> []
        in
        m.m_logs.(pid) <- cut m.m_logs.(pid);
        m.m_last_ckpt.(pid) <- index
      end
      else
        expect_invalid "truncation to a missing checkpoint" (fun () ->
            Trace.truncate_to_checkpoint t ~pid ~index)
  in
  List.iter step ops;
  let decode e = (e.m_seq, e.m_pid, e.m_tag, e.m_peer, e.m_payload) in
  let of_event (e : Helpers.event) = (e.seq, e.pid, e.tag, e.peer, e.payload) in
  let model_all =
    List.sort compare (List.concat_map (fun l -> List.rev_map decode l) (Array.to_list m.m_logs))
  in
  let ok_all = List.map of_event (Helpers.events t) = model_all in
  let ok_pids =
    List.for_all
      (fun pid ->
        List.map of_event (Helpers.events_of t ~pid) = List.rev_map decode m.m_logs.(pid))
      (List.init n Fun.id)
  in
  let text =
    String.concat ""
      (Printf.sprintf "rdtgc-trace 1\nn %d\n" n
      :: List.map
           (fun (_, pid, tag, peer, payload) ->
             match tag with
             | Trace.Checkpoint -> Printf.sprintf "C %d %d\n" pid payload
             | Trace.Send -> Printf.sprintf "S %d %d %d\n" pid payload peer
             | Trace.Receive -> Printf.sprintf "R %d %d %d\n" pid payload peer)
           model_all)
  in
  let ok_text = Trace.to_string t = text in
  let ok_roundtrip = Trace.to_string (load_string (Trace.to_string t)) = text in
  (* last, as it records: [Trace.checkpoint] numbers the next checkpoint
     from the counter the recorders and truncations keep *)
  let ok_counter =
    List.for_all
      (fun pid ->
        m.m_last_ckpt.(pid) >= top
        || begin
          Trace.checkpoint t pid;
          Helpers.last_checkpoint t ~pid = m.m_last_ckpt.(pid) + 1
        end)
      (List.init n Fun.id)
  in
  ok_all && ok_pids && ok_text && ok_roundtrip && ok_counter

let prop_trace_model =
  let op_gen =
    QCheck.Gen.(
      map
        (fun (kind, a, b, c) -> { kind; a; b; c })
        (quad (int_bound 3) nat nat nat))
  in
  QCheck.Test.make ~name:"trace columns match a list model" ~count:300
    (QCheck.make
       ~print:(fun (n, ops) ->
         Printf.sprintf "n=%d [%s]" n (String.concat "; " (List.map print_op ops)))
       QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 0 80) op_gen)))
    (fun (n, ops) -> run_model ~n ops)

(* --- packed logs against a dense model --------------------------------- *)

(* Random programs aimed at the byte-packed logs rather than at the API's
   edges: long logs that span many chunks; every kind of event the codec
   has (checkpoints and sends at and off the predicted payload, receives
   of [k * n + src] ids whose [k] moves by 0, 1, -1 or far either way,
   receives of other ids); [seq] gaps on both sides of what the header
   byte holds; payloads that jump between 0 and [max_payload] (the
   extremes of the zigzagged deltas); and a rollback sweep that cuts at
   every event of a run of checkpoints, one step at a time.  Every
   checkpoint of that run after its first is off the predicted index: a
   header byte, a code byte and a zigzagged delta near [max_payload] of 8
   or 9 bytes, 10 or 11 bytes in all.  A chunk takes an event only while
   28 bytes are free, so a 4 KiB chunk holds at most 407 of them and a
   run of [sweep_len] holds a chunk's last event and the next chunk's
   first.  After every step the readers are compared with a dense model:
   every event, oldest first, in one list and in one list per process. *)
type dense_event = { ev : Helpers.event; line : string (* its text line *) }

type dense = {
  d_n : int;
  d_top : int;
  mutable d_all : dense_event list;  (* newest first *)
  d_logs : Helpers.event list array;  (* newest first *)
  mutable d_seq : int;
  d_ckpt : int array;
  d_send : int array;
  d_recv : int array;
}

type dense_op =
  | Record of { pid : int; what : int; peer : int; pick : int }
  | Burst of { pid : int; len : int; seed : int }
  | Gap of { pid : int; len : int; seed : int }
  | Sweep of { pid : int }
  | Cut of { pid : int; pick : int }

let sweep_len = 420

let print_dense_op = function
  | Record { pid; what; peer; pick } ->
    Printf.sprintf "Record(p%d, %d, peer %d, %d)" pid what peer pick
  | Burst { pid; len; seed } -> Printf.sprintf "Burst(p%d, %d, seed %d)" pid len seed
  | Gap { pid; len; seed } -> Printf.sprintf "Gap(p%d, %d, seed %d)" pid len seed
  | Sweep { pid } -> Printf.sprintf "Sweep(p%d)" pid
  | Cut { pid; pick } -> Printf.sprintf "Cut(p%d, %d)" pid pick

let dense_line (e : Helpers.event) =
  match e.tag with
  | Trace.Checkpoint -> Printf.sprintf "C %d %d\n" e.pid e.payload
  | Trace.Send -> Printf.sprintf "S %d %d %d\n" e.pid e.payload e.peer
  | Trace.Receive -> Printf.sprintf "R %d %d %d\n" e.pid e.payload e.peer

let dense_text m =
  String.concat ""
    (Printf.sprintf "rdtgc-trace 1\nn %d\n" m.d_n :: List.rev_map (fun d -> d.line) m.d_all)

let check_dense ~step t m =
  let fail what = QCheck.Test.fail_reportf "after step %d: %s differs" step what in
  if Trace.length t <> List.length m.d_all then fail "length";
  (* newest first, like the model's logs *)
  let seen = ref [] and logs = Array.make m.d_n [] in
  Trace.iter t (fun v ->
      let e = Helpers.event_of_view v in
      seen := e :: !seen;
      logs.(e.pid) <- e :: logs.(e.pid));
  let rec same es ds =
    match (es, ds) with
    | [], [] -> true
    | e :: es, d :: ds -> e = d.ev && same es ds
    | _ -> false
  in
  if not (same !seen m.d_all) then fail "iter";
  for pid = 0 to m.d_n - 1 do
    let log = logs.(pid) in
    if log <> m.d_logs.(pid) then fail (Printf.sprintf "events of p%d" pid);
    let last =
      List.find_map
        (fun (e : Helpers.event) ->
          if e.tag = Trace.Checkpoint then Some e.payload else None)
        log
    in
    if Option.value last ~default:(-1) <> m.d_ckpt.(pid) then
      fail (Printf.sprintf "last checkpoint p%d" pid)
  done;
  if Trace.to_string t <> dense_text m then fail "to_string"

let dense_record t m ~pid tag ~peer ~payload =
  (match tag with
  | Trace.Checkpoint -> Trace.record_checkpoint t ~pid ~index:payload
  | Trace.Send -> Trace.record_send t ~pid ~msg_id:payload ~dst:peer
  | Trace.Receive -> Trace.record_receive t ~pid ~msg_id:payload ~src:peer);
  let e : Helpers.event = { seq = m.d_seq; pid; tag; peer; payload } in
  m.d_seq <- m.d_seq + 1;
  m.d_all <- { ev = e; line = dense_line e } :: m.d_all;
  m.d_logs.(pid) <- e :: m.d_logs.(pid);
  match tag with
  | Trace.Checkpoint -> m.d_ckpt.(pid) <- payload
  | Trace.Send -> m.d_send.(pid) <- payload
  | Trace.Receive -> m.d_recv.(pid) <- payload

(* A received id from [src]: most often [k * n + src] with [k] near the
   previous receive's, else far above or below it, an id whose residue
   is another process's (with [n > 1]), 0, [max_payload], or anywhere. *)
let dense_receive m ~pid ~src pick =
  let n = m.d_n in
  let k = m.d_recv.(pid) / n in
  let regular k = (max 0 (min ((m.d_top - src) / n) k) * n) + src in
  match pick mod 10 with
  | 0 | 1 -> regular k
  | 2 -> regular (k + 1)
  | 3 -> regular (k - 1)
  | 4 -> regular (k + 2 + (pick lsr 4))
  | 5 -> regular (k - 2 - ((pick lsr 4) land 0xffff))
  | 6 when n > 1 ->
    let other = (src + 1 + ((pick lsr 4) mod (n - 1))) mod n in
    (max 0 (min ((m.d_top / n) - 1) (k + ((pick lsr 4) mod 3) - 1)) * n) + other
  | 7 -> 0
  | 8 -> m.d_top
  | _ -> pick land m.d_top

(* A payload for [tag]: most often the one its reference predicts (a
   checkpoint or send that needs no payload bytes), else 0,
   [max_payload], a repeat, or anywhere; a receive's comes from
   [dense_receive]. *)
let dense_payload m ~pid tag ~peer pick =
  let clamp x = max 0 (min m.d_top x) in
  let near natural =
    match pick mod 8 with
    | 0 -> 0
    | 1 -> m.d_top
    | 2 -> clamp (m.d_top - (pick mod 3))
    | 3 -> pick land m.d_top
    | 4 -> clamp (natural - 1 - (pick mod 5))
    | _ -> clamp natural
  in
  match tag with
  | Trace.Checkpoint -> near (m.d_ckpt.(pid) + 1)
  | Trace.Send -> near (m.d_send.(pid) + m.d_n)
  | Trace.Receive -> dense_receive m ~pid ~src:peer pick

let dense_tag what = match what mod 3 with 0 -> Trace.Checkpoint | 1 -> Trace.Send | _ -> Trace.Receive

(* Cuts [pid]'s model log after its last [Checkpoint index]. *)
let dense_cut m ~pid ~index =
  let rec cut = function
    | (e : Helpers.event) :: rest when e.tag = Trace.Checkpoint && e.payload = index ->
      e :: rest
    | _ :: rest -> cut rest
    | [] -> []
  in
  let log = cut m.d_logs.(pid) in
  let top = match log with e :: _ -> e.seq | [] -> -1 in
  m.d_logs.(pid) <- log;
  m.d_all <- List.filter (fun d -> d.ev.pid <> pid || d.ev.seq <= top) m.d_all;
  m.d_ckpt.(pid) <- index;
  let rec last tag = function
    | (e : Helpers.event) :: _ when e.tag = tag -> Some e.payload
    | _ :: rest -> last tag rest
    | [] -> None
  in
  m.d_send.(pid) <- Option.value (last Trace.Send log) ~default:(pid - m.d_n);
  m.d_recv.(pid) <- Option.value (last Trace.Receive log) ~default:0

let run_dense (n, ops) =
  let t = Trace.create ~n in
  let m =
    {
      d_n = n;
      d_top = Helpers.max_payload ~n;
      d_all = [];
      d_logs = Array.make n [];
      d_seq = 0;
      d_ckpt = Array.make n (-1);
      d_send = Array.init n (fun pid -> pid - n);
      d_recv = Array.make n 0;
    }
  in
  let step = ref 0 in
  let checked () =
    incr step;
    check_dense ~step:!step t m
  in
  let cut ~pid ~index =
    if List.exists
         (fun (e : Helpers.event) -> e.tag = Trace.Checkpoint && e.payload = index)
         m.d_logs.(pid)
    then begin
      Trace.truncate_to_checkpoint t ~pid ~index;
      dense_cut m ~pid ~index
    end
    else
      expect_invalid "truncation to a missing checkpoint" (fun () ->
          Trace.truncate_to_checkpoint t ~pid ~index)
  in
  let record ~pid what peer pick =
    let tag = dense_tag what in
    let peer = if tag = Trace.Checkpoint then 0 else peer mod n in
    dense_record t m ~pid tag ~peer ~payload:(dense_payload m ~pid tag ~peer pick)
  in
  let run = function
    | Record { pid; what; peer; pick } ->
      record ~pid:(pid mod n) what peer pick;
      checked ()
    | Burst { pid; len; seed } ->
      let rng = Random.State.make [| seed |] in
      for _ = 1 to len do
        record ~pid:(pid mod n) (Random.State.bits rng) (Random.State.bits rng)
          (Random.State.bits rng)
      done;
      checked ()
    | Gap { pid; len; seed } ->
      (* [pid]'s last event comes [len] after its previous one *)
      let pid = pid mod n in
      let rng = Random.State.make [| seed |] in
      let any pid =
        record ~pid (Random.State.bits rng) (Random.State.bits rng) (Random.State.bits rng)
      in
      any pid;
      for _ = 2 to len do
        any ((pid + 1) mod n)
      done;
      any pid;
      checked ()
    | Sweep { pid } ->
      let pid = pid mod n in
      let wide = [| 0; m.d_top; 1; m.d_top - 1 |] in
      for i = 0 to sweep_len - 1 do
        dense_record t m ~pid Trace.Checkpoint ~peer:0 ~payload:wide.(i mod 4);
        checked ()
      done;
      for i = sweep_len - 1 downto 0 do
        cut ~pid ~index:wide.(i mod 4);
        checked ()
      done
    | Cut { pid; pick } ->
      let pid = pid mod n in
      let ckpts =
        List.filter_map
          (fun (e : Helpers.event) ->
            if e.tag = Trace.Checkpoint then Some e.payload else None)
          m.d_logs.(pid)
      in
      let index =
        match ckpts with
        | [] -> pick mod 3
        | _ when pick mod 5 = 0 -> m.d_top - (pick mod 2)
        | _ -> List.nth ckpts (pick mod List.length ckpts)
      in
      cut ~pid ~index;
      checked ()
  in
  List.iter run ops;
  true

let prop_dense_model =
  let open QCheck.Gen in
  let record =
    map (fun (pid, what, peer, pick) -> Record { pid; what; peer; pick }) (quad nat nat nat nat)
  in
  let cut = map2 (fun pid pick -> Cut { pid; pick }) nat nat in
  let burst = map3 (fun pid len seed -> Burst { pid; len; seed }) nat (int_range 500 6000) nat in
  (* 63 and 64 straddle the header byte's limit; the largest needs a
     three-byte varint after it *)
  let gap =
    map3
      (fun pid len seed -> Gap { pid; len; seed })
      nat
      (oneofl [ 1; 2; 62; 63; 64; 65; 127; 128; 191; 192; 16_447; 16_448 ])
      nat
  in
  let op = frequency [ (6, record); (1, burst); (1, gap); (3, cut) ] in
  (* no burst before the sweep, which checks the whole trace twice per
     checkpoint of its run *)
  let program =
    oneofl [ 1; 2; 8; 300 ] >>= fun n ->
    list_size (int_range 0 20) (frequency [ (2, record); (1, cut) ]) >>= fun before ->
    nat >>= fun pid ->
    list_size (int_range 0 25) op >>= fun after ->
    return (n, before @ (Sweep { pid } :: after))
  in
  QCheck.Test.make ~name:"packed trace logs match a dense model" ~count:8
    (QCheck.make
       ~print:(fun (n, ops) ->
         Printf.sprintf "n=%d [%s]" n (String.concat "; " (List.map print_dense_op ops)))
       program)
    run_dense

let suite =
  [
    Alcotest.test_case "trace building" `Quick test_trace_building;
    Alcotest.test_case "muted trace notifies, stores and cuts nothing" `Quick
      test_muted_trace_notifies;
    Alcotest.test_case "serialization roundtrip" `Quick
      test_serialization_roundtrip;
    Alcotest.test_case "to_string writes the bytes save writes" `Quick
      test_to_string_matches_save;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
    Alcotest.test_case "diagram shape" `Quick test_diagram_shape;
    Alcotest.test_case "diagram truncation" `Quick test_diagram_truncation;
    Alcotest.test_case "sequence monotone" `Quick test_seq_monotone;
    Alcotest.test_case "ccp shape" `Quick test_ccp_shape;
    Alcotest.test_case "direct message causality" `Quick
      test_causality_direct_message;
    Alcotest.test_case "transitive causality" `Quick test_causality_transitive;
    Alcotest.test_case "volatile precedence" `Quick test_volatile_precedence;
    Alcotest.test_case "consistent pair" `Quick test_consistent_pair;
    Alcotest.test_case "in-transit excluded" `Quick test_in_transit_excluded;
    Alcotest.test_case "orphan receive rejected" `Quick
      test_orphan_receive_rejected;
    Alcotest.test_case "truncation" `Quick test_truncation;
    Alcotest.test_case "truncation erases send" `Quick
      test_truncation_erases_send;
    Alcotest.test_case "truncate missing checkpoint" `Quick
      test_truncate_missing_checkpoint;
    Alcotest.test_case "iter with an empty first process" `Quick
      test_iter_empty_first_process;
    Alcotest.test_case "record rejects what the code cannot pack" `Quick
      test_record_rejects_unpackable;
    Alcotest.test_case "load rejects what the code cannot pack" `Quick
      test_load_rejects_unpackable;
    Alcotest.test_case "recording and delivery allocate nothing" `Quick
      test_record_allocation;
    QCheck_alcotest.to_alcotest prop_precedes_vs_reachability;
    QCheck_alcotest.to_alcotest prop_trace_model;
    QCheck_alcotest.to_alcotest prop_dense_model;
    Alcotest.test_case "load moves every id counter past the loaded ids" `Quick
      test_load_moves_msg_ids_past;
  ]
