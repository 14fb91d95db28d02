(* The differential fuzzer fuzzing itself: determinism, the known-bug
   self-check (an over-collecting collector must be caught and shrunk to
   a handful of events), scenario serialization, and a clean campaign
   over the real stack. *)

module Scenario = Rdt_verify.Scenario
module Harness = Rdt_verify.Harness
module Oracles = Rdt_verify.Oracles
module Shrink = Rdt_verify.Shrink
module Fuzz = Rdt_verify.Fuzz

let scratch = Filename.concat (Filename.get_temp_dir_name ()) "rdtgc-test-fuzz"

(* --- determinism ------------------------------------------------------- *)

let campaign_log ~mutate_lgc ~seed ~runs =
  let buf = Buffer.create 4096 in
  let report =
    Fuzz.campaign ~shrink:mutate_lgc
      ~log:(fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      ~seed ~runs ~max_procs:5
      (Fuzz.harness ~mutate_lgc ~scratch_dir:scratch ())
  in
  (report, Buffer.contents buf)

let test_deterministic () =
  let r1, log1 = campaign_log ~mutate_lgc:false ~seed:99 ~runs:12 in
  let r2, log2 = campaign_log ~mutate_lgc:false ~seed:99 ~runs:12 in
  Alcotest.(check string) "byte-identical logs" log1 log2;
  Alcotest.(check int) "same failure count"
    (List.length r1.Fuzz.failures)
    (List.length r2.Fuzz.failures);
  let sc1 = Scenario.generate ~seed:424242 ~max_procs:6 () in
  let sc2 = Scenario.generate ~seed:424242 ~max_procs:6 () in
  Alcotest.(check bool) "generation is a pure function of the seed" true
    (Scenario.equal sc1 sc2)

(* --- clean campaign ---------------------------------------------------- *)

let test_clean_campaign () =
  let report, log = campaign_log ~mutate_lgc:false ~seed:5 ~runs:25 in
  if not (Fuzz.passed report) then
    Alcotest.failf "clean campaign found violations:\n%s" log

(* --- self-check: seeded known violation -------------------------------- *)

let test_mutant_caught_and_shrunk () =
  let report, log = campaign_log ~mutate_lgc:true ~seed:7 ~runs:10 in
  (match report.Fuzz.failures with
  | [] ->
    Alcotest.failf "over-collecting mutant escaped every oracle:\n%s" log
  | _ -> ());
  (* at least one failure must shrink to a handful of events *)
  let best =
    List.fold_left
      (fun acc (f : Fuzz.failure) ->
        match f.shrunk with
        | Some m -> min acc (Scenario.op_count m)
        | None -> acc)
      max_int report.Fuzz.failures
  in
  if best > 5 then
    Alcotest.failf "smallest shrunk reproducer has %d ops (want <= 5)" best;
  (* and the shrunk reproducer must replay: same oracle, mutant on; clean
     run, mutant off *)
  let f =
    List.find
      (fun (f : Fuzz.failure) ->
        match f.shrunk with
        | Some m -> Scenario.op_count m = best
        | None -> false)
      report.Fuzz.failures
  in
  let min_sc = Option.get f.shrunk in
  let oracle = f.violation.Oracles.oracle in
  let mutant = Harness.run ~mutate_lgc:true ~scratch_dir:scratch min_sc in
  Alcotest.(check bool) "shrunk reproducer still fails the same oracle" true
    (List.exists
       (fun (v : Oracles.violation) -> String.equal v.oracle oracle)
       mutant.Harness.violations);
  let healthy = Harness.run ~scratch_dir:scratch min_sc in
  Alcotest.(check int) "healthy collector passes the reproducer" 0
    (List.length healthy.Harness.violations);
  (* the emitted OCaml reproducer is a Script program *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let ml = Scenario.to_script_ml min_sc in
  List.iter
    (fun needle ->
      if not (contains ml needle) then
        Alcotest.failf "reproducer lacks %S:\n%s" needle ml)
    [ "Rdt_scenarios.Script.create"; "~with_lgc:true" ]

(* --- serialization ----------------------------------------------------- *)

let test_roundtrip () =
  List.iter
    (fun seed ->
      let sc = Scenario.generate ~seed ~max_procs:6 () in
      match Scenario.of_string (Scenario.to_string sc) with
      | Error e -> Alcotest.failf "seed %d: reparse failed: %s" seed e
      | Ok sc' ->
        if not (Scenario.equal sc sc') then
          Alcotest.failf "seed %d: corpus roundtrip changed the scenario" seed)
    [ 1; 2; 3; 17; 2026; 0x5eed ]

let test_normalize () =
  let base = Scenario.generate ~seed:1 ~max_procs:3 () in
  let sc =
    {
      base with
      Scenario.n = 2;
      ops =
        [
          Scenario.Deliver 9 (* never sent *);
          Scenario.Send { id = 1; src = 0; dst = 1 };
          Scenario.Send { id = 1; src = 1; dst = 0 } (* duplicate id *);
          Scenario.Checkpoint 7 (* out of range *);
          Scenario.Crash [ 5 ] (* out of range -> empty *);
          Scenario.Crash [ 0 ];
          Scenario.Deliver 1 (* crash-flushed *);
        ];
    }
  in
  let norm = Scenario.normalize sc in
  Alcotest.(check int) "only the send and the crash survive" 2
    (Scenario.op_count norm)

(* --- corpus regression replay ------------------------------------------ *)

let test_corpus_replay () =
  let dir = Filename.concat scratch "corpus" in
  Harness.rm_rf dir;
  Harness.mkdir_p dir;
  (* save the canonical 3-op mutant killer and replay it as a corpus *)
  let base = Scenario.generate ~seed:1 ~max_procs:2 () in
  let sc =
    {
      base with
      Scenario.seed = 0;
      n = 2;
      durable = false;
      store_fault = None;
      ops =
        [
          Scenario.Send { id = 0; src = 1; dst = 0 };
          Scenario.Deliver 0;
          Scenario.Checkpoint 0;
        ];
    }
  in
  Scenario.save sc (Filename.concat dir "known.scn");
  let report =
    Fuzz.campaign ~shrink:false ~corpus:dir ~seed:1 ~runs:0 ~max_procs:4
      (Fuzz.harness ~mutate_lgc:true ~scratch_dir:scratch ())
  in
  Alcotest.(check int) "corpus replayed" 1 report.Fuzz.corpus_replayed;
  Alcotest.(check int) "corpus scenario still fails under the mutant" 1
    report.Fuzz.corpus_failed;
  let clean =
    Fuzz.campaign ~shrink:false ~corpus:dir ~seed:1 ~runs:0 ~max_procs:4
      (Fuzz.harness ~scratch_dir:scratch ())
  in
  Alcotest.(check int) "corpus scenario passes on the healthy collector" 0
    clean.Fuzz.corpus_failed;
  Harness.rm_rf dir

(* --- the campaign driver over a stub arm --------------------------------- *)

(* No protocol stack: a run fails iff the scenario holds a crash op, so
   what the driver reports, shrinks and saves is known exactly. *)
let has_crash sc =
  List.exists (function Scenario.Crash _ -> true | _ -> false) sc.Scenario.ops

let stub_outcome sc : Fuzz.outcome =
  if has_crash sc then
    Ok [ { Oracles.oracle = "stub-crash"; op = 0; detail = "crash op" } ]
  else Ok []

let stub_arm ~ran =
  {
    Fuzz.label = "stub campaign";
    attach = (fun ~seed:_ sc -> (sc, ()));
    describe = (fun () -> "");
    run =
      (fun () sc ->
        ran := sc :: !ran;
        stub_outcome sc);
    shrink =
      (fun () ~oracle sc ->
        Shrink.minimize_with
          ~check:(fun c -> Fuzz.fails_with ~oracle (stub_outcome c))
          sc);
    corpus =
      Some
        (fun ~dir:_ _ -> function
          | Ok sc -> Fuzz.Replay (sc, ())
          | Error e -> Fuzz.Broken e);
    reproducer_files =
      (fun () ~shrunk _ -> if shrunk then [] else [ (".stub", "stub\n") ]);
  }

let test_driver_stub_arm () =
  let dir = Filename.concat scratch "stub-corpus" in
  Harness.rm_rf dir;
  let ran = ref [] in
  let report =
    Fuzz.campaign ~corpus:dir ~seed:3 ~runs:30 ~max_procs:4 (stub_arm ~ran)
  in
  let crashing = List.filter has_crash !ran in
  if List.is_empty crashing then Alcotest.fail "no generated scenario crashes";
  Alcotest.(check int) "every crashing run is a failure"
    (List.length crashing)
    (List.length report.Fuzz.failures);
  List.iter
    (fun (f : Fuzz.failure) ->
      Alcotest.(check bool) "failing scenario holds a crash" true
        (has_crash f.scenario);
      (match f.shrunk with
      | Some m ->
        Alcotest.(check int) "shrunk to a single op" 1 (Scenario.op_count m);
        Alcotest.(check bool) "the op left is a crash" true (has_crash m)
      | None -> Alcotest.fail "failure was not shrunk");
      List.iter
        (fun ext ->
          let file = Printf.sprintf "seed-%x%s" f.sub_seed ext in
          if not (Sys.file_exists (Filename.concat dir file)) then
            Alcotest.failf "corpus lacks %s" file)
        [ ".scn"; ".min.scn"; ".stub" ])
    report.Fuzz.failures;
  let saved = 2 * List.length report.Fuzz.failures in
  let again =
    Fuzz.campaign ~corpus:dir ~seed:3 ~runs:0 ~max_procs:4 (stub_arm ~ran)
  in
  Alcotest.(check int) "second campaign replays every saved scenario" saved
    again.Fuzz.corpus_replayed;
  Alcotest.(check int) "and counts each one as failed" saved
    again.Fuzz.corpus_failed;
  Harness.rm_rf dir

(* --- durable scenarios ------------------------------------------------- *)

let test_durable_epilogue () =
  (* force a durable scenario and check the close/reopen epilogue runs
     clean *)
  let base = Scenario.generate ~seed:3 ~max_procs:4 () in
  let sc = { base with Scenario.durable = true; store_fault = None } in
  let r = Harness.run ~scratch_dir:scratch sc in
  (match r.Harness.violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "durable run violated: %s" (Fmt.str "%a" Oracles.pp_violation v));
  Alcotest.(check bool) "completed" true (r.Harness.stop = Harness.Completed)

let suite =
  [
    Alcotest.test_case "campaigns are byte-reproducible" `Quick
      test_deterministic;
    Alcotest.test_case "clean campaign finds no violations" `Quick
      test_clean_campaign;
    Alcotest.test_case "over-collecting mutant is caught and shrunk" `Quick
      test_mutant_caught_and_shrunk;
    Alcotest.test_case "corpus format roundtrips" `Quick test_roundtrip;
    Alcotest.test_case "normalization repairs ill-formed op lists" `Quick
      test_normalize;
    Alcotest.test_case "corpus replay works as regression gate" `Quick
      test_corpus_replay;
    Alcotest.test_case "durable scenarios recover exactly on reopen" `Quick
      test_durable_epilogue;
    Alcotest.test_case "campaign driver reports, shrinks and saves a stub arm"
      `Quick test_driver_stub_arm;
  ]
