(* Reproduction of the paper's figures (experiments F1-F5 of DESIGN.md).
   Each experiment prints the artifact it regenerates and PASS/FAIL checks
   against what the paper states. *)

open Exp_support
module Ccp = Rdt_ccp.Ccp
module Zigzag = Rdt_ccp.Zigzag
module Rdt_check = Rdt_ccp.Rdt_check
module Consistency = Rdt_ccp.Consistency
module Figures = Rdt_scenarios.Figures
module Script = Rdt_scenarios.Script
module Protocol = Rdt_protocols.Protocol
module Oracle = Rdt_gc.Oracle
module Recovery_line = Rdt_recovery.Recovery_line
module Stable_store = Rdt_storage.Stable_store
module Table = Rdt_metrics.Table

let verdict_name = function
  | Zigzag.Causal_path -> "C-path"
  | Zigzag.Non_causal_zigzag -> "Z-path"
  | Zigzag.Not_a_path -> "not a path"

(* --- F1: Figure 1 — example CCP and path classification --------------- *)

let exp_f1 () =
  section "EXP-F1 (Figure 1): example CCP, C-paths and Z-paths"
    "Classifies the message sequences named in the paper and checks RDT\n\
     with and without message m3 (paper pids p1,p2,p3 are 0,1,2 here).";
  let f = Figures.figure1 () in
  print_endline "the transcribed pattern ([k] = s^k, mX>/>mX = send/receive):";
  Rdt_ccp.Diagram.print f.trace;
  print_newline ();
  let ck pid index : Ccp.ckpt = { pid; index } in
  let t =
    Table.create
      ~columns:
        [
          ("path", Table.Left);
          ("from", Table.Left);
          ("to", Table.Left);
          ("paper", Table.Left);
          ("measured", Table.Left);
        ]
  in
  let row name msgs from_ to_ paper =
    let v = Zigzag.classify_sequence f.ccp ~from_ ~to_ msgs in
    Table.add_row t
      [
        name;
        Format.asprintf "%a" Ccp.pp_ckpt from_;
        Format.asprintf "%a" Ccp.pp_ckpt to_;
        paper;
        verdict_name v;
      ]
  in
  row "[m1,m2]" [ f.m1; f.m2 ] (ck 0 0) (ck 2 1) "C-path";
  row "[m1,m4]" [ f.m1; f.m4 ] (ck 0 0) (ck 2 2) "C-path";
  row "[m5,m4]" [ f.m5; f.m4 ] (ck 0 1) (ck 2 2) "Z-path";
  Table.print t;
  let ok =
    check "RDT holds with m3" (Rdt_check.holds f.ccp)
    && check "RDT fails without m3"
         (not (Rdt_check.holds (Figures.figure1_without_m3 ())))
    && check "without m3: s1_p0 ~~> s2_p2 untracked (paper's example)"
         (let ccp = Figures.figure1_without_m3 () in
          Zigzag.path_exists ccp (ck 0 1) (ck 2 2)
          && not (Ccp.precedes ccp (ck 0 1) (ck 2 2)))
    && check "{v_p0, s1_p1, s1_p2} consistent (paper's example)"
         (Consistency.is_consistent f.ccp [| 2; 1; 1 |])
    && check "{s0_p0, s1_p1, s1_p2} inconsistent (paper's example)"
         (not (Consistency.is_consistent f.ccp [| 0; 1; 1 |]))
  in
  ok

(* --- F2: Figure 2 — useless checkpoints and the domino effect --------- *)

let exp_f2 () =
  section "EXP-F2 (Figure 2): useless checkpoints and the domino effect"
    "The crossing ping-pong pattern without forced checkpoints makes every\n\
     non-initial stable checkpoint useless: one failure rolls both\n\
     processes back to their initial states.  The same interleaving under\n\
     the RDT protocols stays recoverable.";
  let f = Figures.figure2 () in
  let useless = Zigzag.useless f.ccp in
  Printf.printf "uncoordinated run: useless checkpoints = %s\n"
    (String.concat " "
       (List.map (fun c -> Format.asprintf "%a" Ccp.pp_ckpt c) useless));
  let t =
    Table.create
      ~columns:
        [
          ("protocol", Table.Left);
          ("forced ckpts", Table.Right);
          ("useless ckpts", Table.Right);
          ("rollback depth (p1 fails)", Table.Right);
          ("domino?", Table.Left);
        ]
  in
  let ok = ref true in
  let run_protocol p =
    let s = Figures.figure2_with_protocol p in
    let ccp = Script.ccp s in
    let useless = List.length (Zigzag.useless ccp) in
    let forced = Script.forced_taken s 0 + Script.forced_taken s 1 in
    let bound = [| Ccp.volatile_index ccp 0; Ccp.last_stable ccp 1 |] in
    let line =
      match Consistency.max_consistent ccp ~bound with
      | Some line -> line
      | None -> [| -1; -1 |]
    in
    let depth = Consistency.count_rolled_back ccp line in
    let domino = line.(0) = 0 && line.(1) = 0 in
    (p, forced, useless, depth, domino)
  in
  let results = List.map run_protocol Protocol.all in
  List.iter
    (fun ((p : Protocol.t), forced, useless, depth, domino) ->
      Table.add_row t
        [
          p.Protocol.id;
          string_of_int forced;
          string_of_int useless;
          string_of_int depth;
          (if domino then "yes" else "no");
        ])
    results;
  let results =
    List.map (fun (p, _, useless, _, domino) -> (p, useless, domino)) results
  in
  Table.print t;
  List.iter
    (fun (p, useless, domino) ->
      if p.Protocol.id = "none" then
        ok :=
          check "uncoordinated: domino to the initial state" domino && !ok
      else
        ok :=
          check (p.Protocol.id ^ ": no useless checkpoints") (useless = 0)
          && check (p.Protocol.id ^ ": no domino") (not domino)
          && !ok)
    results;
  !ok

(* --- F3: recovery-line determination (Figure 3's role) ---------------- *)

let exp_f3 () =
  section
    "EXP-F3 (Figure 3): recovery-line determination and obsolete checkpoints"
    "Figure 3's exact messages are not specified in the paper; this runs\n\
     Lemma 1 on a 4-process CCP in its spirit, cross-checks it against\n\
     Definition 5 (maximal consistent global checkpoint) for every faulty\n\
     set, and lists the obsolete checkpoints per Theorem 1.";
  let ccp = Figures.recovery_ccp () in
  let n = Ccp.n ccp in
  let t =
    Table.create
      ~columns:
        [
          ("faulty set", Table.Left);
          ("recovery line (Lemma 1)", Table.Left);
          ("= Definition 5?", Table.Left);
          ("ckpts rolled back", Table.Right);
        ]
  in
  let ok = ref true in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun l -> x :: l) s
  in
  List.iter
    (fun faulty ->
      if faulty <> [] then begin
        let l1 = Recovery_line.lemma1 ccp ~faulty in
        let l2 = Recovery_line.by_max_consistent ccp ~faulty in
        let agree = l1 = l2 in
        if not agree then ok := false;
        Table.add_row t
          [
            fmt_ints faulty;
            fmt_int_array l1;
            (if agree then "yes" else "NO");
            string_of_int (Consistency.count_rolled_back ccp l1);
          ]
      end)
    (subsets (List.init n Fun.id));
  Table.print t;
  let obsolete = Oracle.obsolete ccp in
  Printf.printf "\nTheorem 1 obsolete checkpoints: %s\n"
    (String.concat " "
       (List.map (fun c -> Format.asprintf "%a" Ccp.pp_ckpt c) obsolete));
  let last_kept =
    List.for_all
      (fun pid ->
        not
          (List.exists
             (fun (c : Ccp.ckpt) ->
               c.pid = pid && c.index = Ccp.last_stable ccp pid)
             obsolete))
      (List.init n Fun.id)
  in
  check "Lemma 1 agrees with Definition 5 on every faulty set" !ok
  && check "the last stable checkpoint of each process is never obsolete"
       last_kept
  && check "the pattern is RD-trackable" (Rdt_check.holds ccp)

(* --- F4: Figure 4 — RDT-LGC execution --------------------------------- *)

let exp_f4 () =
  section "EXP-F4 (Figure 4): RDT-LGC execution, DV and UC evolution"
    "Replays the scripted 3-process execution through real middleware with\n\
     RDT-LGC attached, and checks the paper's final state: s2_p2, s1_p3\n\
     and s2_p3 eliminated (paper numbering); s1_p2 obsolete but retained\n\
     because p2 lacks causal knowledge of p3's later checkpoints.";
  let s = Figures.figure4 () in
  let t =
    Table.create
      ~columns:
        [
          ("process", Table.Left);
          ("final DV", Table.Left);
          ("final UC", Table.Left);
          ("retained", Table.Left);
          ("paper", Table.Left);
        ]
  in
  let expectations =
    [
      (0, "(1,0,0)", "(0,*,*)", "{0}");
      (1, "(1,4,2)", "(0,3,1)", "{0,1,3}");
      (2, "(1,4,4)", "(0,3,3)", "{0,3}");
    ]
  in
  let ok = ref true in
  List.iter
    (fun (pid, e_dv, e_uc, e_ret) ->
      let dv =
        "("
        ^ String.concat ","
            (Array.to_list (Array.map string_of_int (Script.dv s pid)))
        ^ ")"
      in
      let uc = fmt_uc (Script.uc s pid) in
      let ret = fmt_ints (Script.retained s pid) in
      let match_ = dv = e_dv && uc = e_uc && ret = e_ret in
      if not match_ then ok := false;
      Table.add_row t
        [
          Printf.sprintf "p%d (paper p%d)" pid (pid + 1);
          dv;
          uc;
          ret;
          Printf.sprintf "%s %s %s" e_dv e_uc e_ret;
        ])
    expectations;
  Table.print t;
  let ccp = Script.ccp s in
  check "final DV/UC/retained match the paper" !ok
  && check "exactly the paper's three checkpoints were eliminated"
       (let eliminated =
          List.fold_left
            (fun acc pid ->
              acc
              + (Stable_store.stats (Script.store s pid))
                  .Stable_store.eliminated_total)
            0 [ 0; 1; 2 ]
        in
        eliminated = 3)
  && check "s1_p2 (paper) is obsolete yet retained — the causal-knowledge gap"
       (Oracle.is_obsolete ccp { Ccp.pid = 1; index = 1 }
       && Stable_store.mem (Script.store s 1) ~index:1)
  && check "no forced checkpoints disturbed the figure"
       (List.for_all (fun pid -> Script.forced_taken s pid = 0) [ 0; 1; 2 ])

(* --- F5: Figure 5 — worst-case space overhead -------------------------- *)

let exp_f5 () =
  section "EXP-F5 (Figure 5): worst-case scenario — the n / n(n+1) bounds"
    "Drives the worst-case pattern for growing n: every process ends up\n\
     retaining exactly n checkpoints; taking one more peaks at n+1 per\n\
     process (n(n+1) globally) before settling back to n^2 in total.";
  let t =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("retained/process", Table.Right);
          ("global", Table.Right);
          ("peak/process", Table.Right);
          ("global peak", Table.Right);
          ("n(n+1) bound", Table.Right);
        ]
  in
  let sizes = [ 2; 3; 4; 6; 8; 12; 16 ] in
  let ok = ref true in
  List.iter
    (fun n ->
      let s = Figures.worst_case ~n in
      (* trigger the transient: all processes take one more checkpoint *)
      for pid = 0 to n - 1 do
        Script.checkpoint s pid
      done;
      let counts = List.init n (fun pid -> List.length (Script.retained s pid)) in
      let peaks =
        List.init n (fun pid ->
            (Stable_store.stats (Script.store s pid)).Stable_store.peak_count)
      in
      let global = List.fold_left ( + ) 0 counts in
      let global_peak = List.fold_left ( + ) 0 peaks in
      if
        List.exists (fun c -> c <> n) counts
        || List.exists (fun p -> p <> n + 1) peaks
      then ok := false;
      Table.add_row t
        [
          string_of_int n;
          string_of_int (List.hd counts);
          string_of_int global;
          string_of_int (List.hd peaks);
          string_of_int global_peak;
          string_of_int (n * (n + 1));
        ])
    sizes;
  Table.print t;
  check "every process retains exactly n, peaks at n+1 (global n(n+1))" !ok

let all () =
  (* explicit sequencing: list elements would evaluate right-to-left *)
  let r1 = exp_f1 () in
  let r2 = exp_f2 () in
  let r3 = exp_f3 () in
  let r4 = exp_f4 () in
  let r5 = exp_f5 () in
  r1 && r2 && r3 && r4 && r5
