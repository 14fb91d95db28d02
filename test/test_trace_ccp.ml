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
  let seqs = List.map (fun (e : Trace.event) -> e.seq) (Trace.all_events t) in
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
          (fun (e : Trace.event) -> (e.pid, e.kind))
          (Trace.all_events t)
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
           (fun (e : Trace.event) ->
             match e.kind with
             | Trace.Send { msg_id; _ } | Trace.Receive { msg_id; _ } ->
               msg_id < id
             | Trace.Checkpoint _ -> true)
           (Trace.all_events reloaded)))

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
  let evs = Trace.all_events t in
  Alcotest.(check int) "both records sequenced" 2 (List.length evs);
  Alcotest.(check (list int))
    "canonical (stamp) order, not pid order" [ 2; 1 ]
    (List.map (fun (e : Trace.event) -> e.pid) evs)

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
    QCheck_alcotest.to_alcotest prop_precedes_vs_reachability;
  ]
