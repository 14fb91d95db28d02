(* Zigzag-path machinery, validated on the paper's Figure 1 and Figure 2
   plus property tests relating zigzag reachability to causality. *)

module Ccp = Rdt_ccp.Ccp
module Zigzag = Rdt_ccp.Zigzag
module Figures = Rdt_scenarios.Figures

let ck pid index : Ccp.ckpt = { pid; index }

let verdict : Zigzag.verdict Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Zigzag.Causal_path -> Format.pp_print_string ppf "Causal_path"
      | Zigzag.Non_causal_zigzag -> Format.pp_print_string ppf "Non_causal_zigzag"
      | Zigzag.Not_a_path -> Format.pp_print_string ppf "Not_a_path")
    ( = )

(* Figure 1 (paper pids p1,p2,p3 = 0,1,2): [m1,m2] and [m1,m4] are
   C-paths; [m5,m4] is a Z-path from s1_p0 to s2_p2. *)
let test_figure1_classifications () =
  let f = Figures.figure1 () in
  Alcotest.check verdict "[m1,m2] is a C-path" Zigzag.Causal_path
    (Zigzag.classify_sequence f.ccp ~from_:(ck 0 0) ~to_:(ck 2 1)
       [ f.m1; f.m2 ]);
  Alcotest.check verdict "[m1,m4] is a C-path" Zigzag.Causal_path
    (Zigzag.classify_sequence f.ccp ~from_:(ck 0 0) ~to_:(ck 2 2)
       [ f.m1; f.m4 ]);
  Alcotest.check verdict "[m5,m4] is a Z-path" Zigzag.Non_causal_zigzag
    (Zigzag.classify_sequence f.ccp ~from_:(ck 0 1) ~to_:(ck 2 2)
       [ f.m5; f.m4 ]);
  Alcotest.check verdict "[m2,m1] is no path" Zigzag.Not_a_path
    (Zigzag.classify_sequence f.ccp ~from_:(ck 0 0) ~to_:(ck 2 1)
       [ f.m2; f.m1 ])

let test_figure1_path_exists () =
  let f = Figures.figure1 () in
  Alcotest.(check bool) "s1_p0 ~~> s2_p2" true
    (Zigzag.path_exists f.ccp (ck 0 1) (ck 2 2));
  Alcotest.(check bool) "s2_p2 has no path back" false
    (Zigzag.path_exists f.ccp (ck 2 2) (ck 0 1));
  (* the zigzag relation respects condition (iii): nothing lands before
     the initial checkpoint of p2 *)
  Alcotest.(check bool) "nothing reaches s0_p2" false
    (Zigzag.path_exists f.ccp (ck 0 0) (ck 2 0))

let test_figure1_no_useless () =
  let f = Figures.figure1 () in
  Alcotest.(check (list string)) "no useless checkpoints" []
    (List.map
       (fun (c : Ccp.ckpt) -> Printf.sprintf "%d_%d" c.pid c.index)
       (Zigzag.useless f.ccp))

let test_figure1_sequence_ends_matter () =
  let f = Figures.figure1 () in
  (* [m5,m4] does not start after s0_p0's successor... it does start after
     s0 (interval 2 >= 1), but cannot end later than p2's volatile *)
  Alcotest.check verdict "[m5,m4] from s0 is still a zigzag"
    Zigzag.Non_causal_zigzag
    (Zigzag.classify_sequence f.ccp ~from_:(ck 0 0) ~to_:(ck 2 2)
       [ f.m5; f.m4 ]);
  (* but from the volatile checkpoint of p0 nothing was sent *)
  Alcotest.check verdict "nothing starts at the volatile" Zigzag.Not_a_path
    (Zigzag.classify_sequence f.ccp ~from_:(ck 0 2) ~to_:(ck 2 2)
       [ f.m5; f.m4 ])

(* Figure 2: the domino pattern.  [m2,m1] is a zigzag cycle on s1_p0; all
   non-initial stable checkpoints are useless. *)
let test_figure2_cycle () =
  let f = Figures.figure2 () in
  Alcotest.(check bool) "s1_p0 in a Z-cycle" true
    (Zigzag.path_exists f.ccp (ck 0 1) (ck 0 1));
  Alcotest.check verdict "[m2,m1] zigzag" Zigzag.Non_causal_zigzag
    (Zigzag.classify_sequence f.ccp ~from_:(ck 0 1) ~to_:(ck 0 1)
       [ f.m2; f.m1 ])

let test_figure2_useless_set () =
  let f = Figures.figure2 () in
  let useless =
    List.sort compare
      (List.map
         (fun (c : Ccp.ckpt) -> (c.pid, c.index))
         (Zigzag.useless f.ccp))
  in
  Alcotest.(check (list (pair int int)))
    "all non-initial stable checkpoints useless"
    [ (0, 1); (0, 2); (1, 1) ]
    useless

let test_initial_checkpoints_never_useless () =
  let f = Figures.figure2 () in
  let useless = Zigzag.useless f.ccp in
  Alcotest.(check bool) "s0_p0" false (List.mem (ck 0 0) useless);
  Alcotest.(check bool) "s0_p1" false (List.mem (ck 1 0) useless)

let test_reach_shape () =
  let f = Figures.figure1 () in
  let r = Zigzag.reach f.ccp ~src:(ck 0 1) in
  (* from s1_p0: m5 lands at p1 in interval 2, m3 at p2 in interval 2, and
     [m5,m4] also lands at p2 in interval 2 *)
  Alcotest.(check int) "lands at p1 interval 2" 2 r.(1);
  Alcotest.(check int) "lands at p2 interval 2" 2 r.(2);
  Alcotest.(check bool) "nothing lands back at p0" true (r.(0) = max_int)

(* Properties: a causal precedence between checkpoints implies a zigzag
   path (C-paths are zigzag paths), on arbitrary random traces. *)
let prop_causal_implies_zigzag =
  QCheck.Test.make ~name:"causal precedence implies zigzag path" ~count:60
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 2 5)))
    (fun (seed, n) ->
      let trace = Helpers.random_trace ~seed ~n ~ops:60 in
      let ccp = Ccp.of_trace trace in
      List.for_all
        (fun a ->
          List.for_all
            (fun (b : Ccp.ckpt) ->
              (* restrict to cross-process precedence: local successor
                 precedence involves no message *)
              a.Ccp.pid = b.Ccp.pid
              || (not (Ccp.precedes ccp a b))
              || Zigzag.path_exists ccp a b)
            (Ccp.checkpoints ccp))
        (Ccp.checkpoints ccp))

let prop_reach_monotone =
  QCheck.Test.make ~name:"zigzag reach is monotone in the source index"
    ~count:40
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 2 4)))
    (fun (seed, n) ->
      let trace = Helpers.random_trace ~seed ~n ~ops:50 in
      let ccp = Ccp.of_trace trace in
      List.for_all
        (fun pid ->
          let rec go index ok =
            if index >= Ccp.volatile_index ccp pid then ok
            else begin
              let r1 = Zigzag.reach ccp ~src:{ Ccp.pid; index } in
              let r2 = Zigzag.reach ccp ~src:{ Ccp.pid; index = index + 1 } in
              (* an earlier source reaches at least as much *)
              let dominated =
                Array.for_all2 (fun a b -> a <= b) r1 r2
              in
              go (index + 1) (ok && dominated)
            end
          in
          go 0 true)
        (List.init n Fun.id))

(* The zigzag relation is a function of the checkpoint-and-communication
   pattern, not of the particular linearization the trace happened to
   record.  Replay the events of a random trace in a different but still
   causal-order-preserving interleaving (per-process order kept, every
   receive after its send) and the analysis must not move. *)
let causal_shuffle ~seed trace =
  let module Trace = Rdt_ccp.Trace in
  let rng = Rdt_sim.Prng.create ~seed in
  let n = Trace.n trace in
  let queues =
    Array.init n (fun pid -> ref (Helpers.events_of trace ~pid))
  in
  let sent = Hashtbl.create 64 in
  let out = Trace.create ~n in
  let total = Trace.length trace in
  for _ = 1 to total do
    let ready =
      List.filter
        (fun pid ->
          match !(queues.(pid)) with
          | [] -> false
          | (e : Helpers.event) :: _ -> (
            match e.tag with
            | Trace.Receive -> Hashtbl.mem sent e.payload
            | Trace.Checkpoint | Trace.Send -> true))
        (List.init n Fun.id)
    in
    (* the recorded order itself is causal, so some head is always ready *)
    let pid = List.nth ready (Rdt_sim.Prng.int rng (List.length ready)) in
    match !(queues.(pid)) with
    | [] -> assert false
    | e :: rest ->
      queues.(pid) := rest;
      if e.tag = Trace.Send then Hashtbl.replace sent e.payload ();
      Helpers.record_event out ~pid e
  done;
  out

let prop_reorder_invariance =
  QCheck.Test.make
    ~name:"zigzag analysis invariant under causal reorderings" ~count:40
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 2 5)))
    (fun (seed, n) ->
      let trace = Helpers.random_trace ~seed ~n ~ops:60 in
      let ccp = Ccp.of_trace trace in
      let ccp' = Ccp.of_trace (causal_shuffle ~seed:(seed lxor 0x5a5a) trace) in
      let key (c : Ccp.ckpt) = (c.pid, c.index) in
      List.sort compare (List.map key (Zigzag.useless ccp))
      = List.sort compare (List.map key (Zigzag.useless ccp'))
      && List.for_all
           (fun (c : Ccp.ckpt) ->
             Zigzag.reach ccp ~src:c = Zigzag.reach ccp' ~src:c)
           (Ccp.checkpoints ccp))

let suite =
  [
    Alcotest.test_case "figure 1 classifications" `Quick
      test_figure1_classifications;
    Alcotest.test_case "figure 1 path existence" `Quick
      test_figure1_path_exists;
    Alcotest.test_case "figure 1 has no useless checkpoint" `Quick
      test_figure1_no_useless;
    Alcotest.test_case "figure 1 sequence endpoints" `Quick
      test_figure1_sequence_ends_matter;
    Alcotest.test_case "figure 2 zigzag cycle" `Quick test_figure2_cycle;
    Alcotest.test_case "figure 2 useless set" `Quick test_figure2_useless_set;
    Alcotest.test_case "initial checkpoints never useless" `Quick
      test_initial_checkpoints_never_useless;
    Alcotest.test_case "reach shape" `Quick test_reach_shape;
    QCheck_alcotest.to_alcotest prop_causal_implies_zigzag;
    QCheck_alcotest.to_alcotest prop_reach_monotone;
    QCheck_alcotest.to_alcotest prop_reorder_invariance;
  ]
