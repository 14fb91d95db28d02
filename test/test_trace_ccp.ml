module Trace = Rdt_ccp.Trace
module Ccp = Rdt_ccp.Ccp
module VC = Rdt_causality.Vector_clock

let ck pid index : Ccp.ckpt = { pid; index }

let test_trace_building () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  Alcotest.(check int) "s0 recorded" 0 (Trace.last_checkpoint_index t ~pid:0);
  Trace.checkpoint t 0;
  Alcotest.(check int) "s1 recorded" 1 (Trace.last_checkpoint_index t ~pid:0);
  Alcotest.(check int) "p1 untouched" 0 (Trace.last_checkpoint_index t ~pid:1)

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
    (List.length (Ccp.stable_checkpoints ccp))

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
  let v0 = Ccp.volatile ccp 0 and v1 = Ccp.volatile ccp 1 in
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
  Alcotest.(check bool) "initials consistent" true
    (Ccp.consistent_pair ccp (ck 0 0) (ck 1 0));
  Alcotest.(check bool) "dependent pair inconsistent" false
    (Ccp.consistent_pair ccp (ck 0 0) (ck 1 1))

let test_in_transit_excluded () =
  let t = Trace.init_with_initial_checkpoints ~n:2 in
  let _unreceived = Trace.send t ~src:0 ~dst:1 in
  let ccp = Ccp.of_trace t in
  Alcotest.(check int) "no delivered messages" 0 (Array.length (Ccp.messages ccp));
  (* an undelivered send creates no dependency *)
  Alcotest.(check bool) "no causality" false
    (Ccp.precedes ccp (ck 0 0) (Ccp.volatile ccp 1))

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
  let rendered = Rdt_ccp.Diagram.render t in
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
  let rendered = Rdt_ccp.Diagram.render ~max_events:10 t in
  Alcotest.(check bool) "notes the omission" true
    (String.length rendered > 0 && String.get rendered 0 = '.')

(* regression: [finalize] used to seed its flattened event array from
   process 0's pending buffer, so a deferred-order trace where pid 0
   buffered nothing (its arrays still [||]) while other pids did crashed
   with Invalid_argument; the seed must come from the first non-empty
   buffer *)
let test_finalize_empty_first_process () =
  let t = Trace.create ~n:3 in
  let clock = ref 0.0 in
  Trace.set_order_source t (fun c ->
      clock := !clock +. 1.0;
      Rdt_sim.Stamp.set c ~time:!clock ~u:0 ~v:0);
  Trace.record_checkpoint t ~pid:2 ~index:0;
  Trace.record_checkpoint t ~pid:1 ~index:0;
  let evs = Helpers.events t in
  Alcotest.(check int) "both records sequenced" 2 (List.length evs);
  Alcotest.(check (list int))
    "canonical (stamp) order, not pid order" [ 2; 1 ]
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
  let big = Trace.max_payload t + 1 in
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
  let top = Trace.max_payload t in
  Trace.record_send t ~pid:1 ~msg_id:top ~dst:1;
  Trace.record_checkpoint t ~pid:1 ~index:top;
  Alcotest.(check (list (pair int int)))
    "peer n-1 and max payload decode" [ (1, top); (0, top) ]
    (List.filteri (fun i _ -> i >= 1)
       (List.map
          (fun (e : Helpers.event) -> (e.peer, e.payload))
          (Helpers.events_of t ~pid:1)));
  Alcotest.(check int) "max index is last" top (Trace.last_checkpoint_index t ~pid:1)

let load_string text =
  let path = Filename.temp_file "rdtgc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Trace.load path)

let test_load_rejects_unpackable () =
  let big = string_of_int (Trace.max_payload (Trace.create ~n:2) + 1) in
  List.iter
    (fun line ->
      Alcotest.check_raises line
        (Failure (Printf.sprintf "Trace.of_channel: bad line %S" line))
        (fun () -> ignore (load_string ("rdtgc-trace 1\nn 2\nC 0 0\n" ^ line ^ "\n"))))
    [
      "S 0 0 9"; "S 0 0 -1"; "R 1 0 2"; "C 0 " ^ big; "S 0 " ^ big ^ " 1";
      "C 2 0"; "C 0 -1"; "C 0"; "C 0 99999999999999999999999";
    ]

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

(* --- model-based property -------------------------------------------- *)

(* Random sequences of records, truncations and finalizations, on traces
   with and without an order source, checked against a plain list model:
   per-process logs (newest first) whose seqs are assigned at record time,
   or — with a source — at the model's own finalize, by sorting the
   buffered records on (time, k, pid) as the trace's canonical order
   does (the test source stamps u = v = 0 and a non-decreasing time). *)
type m_event = {
  mutable m_seq : int;
  m_pid : int;
  m_tag : Trace.tag;
  m_peer : int;
  m_payload : int;
}

type model = {
  m_logs : m_event list array;
  mutable m_pending : (float * int * m_event) list;
  mutable m_next_seq : int;
  m_last_time : float array;
  m_last_k : int array;
  m_last_ckpt : int array;
}

type op = { kind : int; a : int; b : int; c : int; tick : bool }

let print_op o =
  Printf.sprintf "{kind=%d a=%d b=%d c=%d tick=%b}" o.kind o.a o.b o.c o.tick

let model_finalize m =
  let sorted =
    List.sort
      (fun (t1, k1, e1) (t2, k2, e2) -> compare (t1, k1, e1.m_pid) (t2, k2, e2.m_pid))
      m.m_pending
  in
  List.iter
    (fun (_, _, e) ->
      e.m_seq <- m.m_next_seq;
      m.m_next_seq <- m.m_next_seq + 1)
    sorted;
  m.m_pending <- []

let expect_invalid what f =
  if not (raises_invalid f) then QCheck.Test.fail_reportf "%s did not raise" what

let run_model ~n ~sourced ops =
  let t = Trace.create ~n in
  let clock = ref 0.0 in
  if sourced then
    Trace.set_order_source t (fun c -> Rdt_sim.Stamp.set c ~time:!clock ~u:0 ~v:0);
  let m =
    {
      m_logs = Array.make n [];
      m_pending = [];
      m_next_seq = 0;
      m_last_time = Array.make n nan;
      m_last_k = Array.make n 0;
      m_last_ckpt = Array.make n (-1);
    }
  in
  let top = Trace.max_payload t in
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
      let e = { m_seq = -1; m_pid = pid; m_tag = tag; m_peer = peer; m_payload = payload } in
      m.m_logs.(pid) <- e :: m.m_logs.(pid);
      if tag = Trace.Checkpoint then m.m_last_ckpt.(pid) <- payload;
      if sourced then begin
        let k =
          if Float.equal !clock m.m_last_time.(pid) then m.m_last_k.(pid) + 1 else 0
        in
        m.m_last_time.(pid) <- !clock;
        m.m_last_k.(pid) <- k;
        m.m_pending <- (!clock, k, e) :: m.m_pending
      end
      else begin
        e.m_seq <- m.m_next_seq;
        m.m_next_seq <- m.m_next_seq + 1
      end
    end
  in
  let step o =
    if o.tick then clock := !clock +. 1.0;
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
    | 3 ->
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
      model_finalize m;
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
    | _ ->
      Trace.finalize t;
      model_finalize m
  in
  List.iter step ops;
  for pid = 0 to n - 1 do
    if Trace.last_checkpoint_index t ~pid <> m.m_last_ckpt.(pid) then
      QCheck.Test.fail_reportf "last_checkpoint_index p%d: %d, model %d" pid
        (Trace.last_checkpoint_index t ~pid) m.m_last_ckpt.(pid)
  done;
  model_finalize m;
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
  let ok_fold = Trace.fold t ~init:0 (fun k _ -> k + 1) = List.length model_all in
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
  ok_all && ok_pids && ok_fold && ok_text && ok_roundtrip

let prop_trace_model =
  let op_gen =
    QCheck.Gen.(
      map
        (fun (kind, a, b, (c, tick)) -> { kind; a; b; c; tick })
        (quad (int_bound 4) nat nat (pair nat bool)))
  in
  QCheck.Test.make ~name:"trace columns match a list model" ~count:300
    (QCheck.make
       ~print:(fun (n, sourced, ops) ->
         Printf.sprintf "n=%d sourced=%b [%s]" n sourced
           (String.concat "; " (List.map print_op ops)))
       QCheck.Gen.(triple (int_range 1 5) bool (list_size (int_range 0 80) op_gen)))
    (fun (n, sourced, ops) -> run_model ~n ~sourced ops)

let suite =
  [
    Alcotest.test_case "trace building" `Quick test_trace_building;
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
    Alcotest.test_case "finalize with empty first process" `Quick
      test_finalize_empty_first_process;
    Alcotest.test_case "record rejects what the code cannot pack" `Quick
      test_record_rejects_unpackable;
    Alcotest.test_case "load rejects what the code cannot pack" `Quick
      test_load_rejects_unpackable;
    Alcotest.test_case "recording and delivery allocate nothing" `Quick
      test_record_allocation;
    QCheck_alcotest.to_alcotest prop_precedes_vs_reachability;
    QCheck_alcotest.to_alcotest prop_trace_model;
  ]
