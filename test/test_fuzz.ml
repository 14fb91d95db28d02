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

let campaign_log ?corpus ~mutate_lgc ~seed ~runs () =
  let buf = Buffer.create 4096 in
  let report =
    Fuzz.campaign ~shrink:mutate_lgc ?corpus
      ~log:(fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      ~seed ~runs ~max_procs:5
      (Fuzz.harness ~mutate_lgc ~scratch_dir:scratch ())
  in
  (report, Buffer.contents buf)

let test_deterministic () =
  let r1, log1 = campaign_log ~mutate_lgc:false ~seed:99 ~runs:12 () in
  let r2, log2 = campaign_log ~mutate_lgc:false ~seed:99 ~runs:12 () in
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
  let report, log = campaign_log ~mutate_lgc:false ~seed:5 ~runs:25 () in
  if not (Fuzz.passed report) then
    Alcotest.failf "clean campaign found violations:\n%s" log

(* --- self-check: seeded known violation -------------------------------- *)

let test_mutant_caught_and_shrunk () =
  (* beside [scratch], which every durable harness run wipes *)
  let dir = scratch ^ "-mutant-corpus" in
  Harness.rm_rf dir;
  let report, log =
    campaign_log ~corpus:dir ~mutate_lgc:true ~seed:7 ~runs:10 ()
  in
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
  (* the saved scenarios are the whole reproducer: exactly the original
     and the shrunk one per failure, each failing again under the mutant
     on replay and passing on the healthy collector *)
  let expected =
    List.concat_map
      (fun (f : Fuzz.failure) ->
        let base = Printf.sprintf "seed-%x" f.sub_seed in
        [ base ^ ".scn"; base ^ ".min.scn" ])
      report.Fuzz.failures
    |> List.sort compare
  in
  Alcotest.(check (list string)) "saved files" expected
    (Sys.readdir dir |> Array.to_list |> List.sort compare);
  let replay ~mutate_lgc =
    Fuzz.campaign ~corpus:dir ~seed:7 ~runs:0 ~max_procs:5
      (Fuzz.harness ~mutate_lgc ~scratch_dir:scratch ())
  in
  let under_mutant = replay ~mutate_lgc:true in
  Alcotest.(check int) "every saved file replayed" (List.length expected)
    under_mutant.Fuzz.corpus_replayed;
  Alcotest.(check int) "and fails under the mutant" (List.length expected)
    under_mutant.Fuzz.corpus_failed;
  let under_healthy = replay ~mutate_lgc:false in
  Alcotest.(check int) "and passes on the healthy collector" 0
    under_healthy.Fuzz.corpus_failed;
  Harness.rm_rf dir

(* --- serialization ----------------------------------------------------- *)

let test_roundtrip () =
  List.iter
    (fun seed ->
      let sc = Scenario.generate ~seed ~max_procs:6 () in
      match Helpers.scenario_of_string (Scenario.to_string sc) with
      | Error e -> Alcotest.failf "seed %d: reparse failed: %s" seed e
      | Ok sc' ->
        if not (Scenario.equal sc sc') then
          Alcotest.failf "seed %d: corpus roundtrip changed the scenario" seed)
    [ 1; 2; 3; 17; 2026; 0x5eed ]

(* The parser refuses a header line that [Harness.run] could not run: a
   system wider than a checkpoint record's DV (before anything is sized
   by n), or a protocol that does not guarantee RDT.  Each case replaces
   one header line and names the error it expects. *)
let test_parse_rejects cases () =
  let text = Scenario.to_string (Scenario.generate ~seed:1 ~max_procs:3 ()) in
  let with_line line =
    let key = List.hd (String.split_on_char ' ' line) ^ " " in
    String.split_on_char '\n' text
    |> List.map (fun l -> if String.starts_with ~prefix:key l then line else l)
    |> String.concat "\n"
  in
  List.iter
    (fun (line, expect) ->
      match Helpers.scenario_of_string (with_line line) with
      | Ok _ -> Alcotest.failf "%S parsed" line
      | Error e ->
        if not (Helpers.contains e expect) then
          Alcotest.failf "%S: error %S lacks %S" line e expect)
    cases

let huge_n =
  List.map
    (fun n ->
      ( Printf.sprintf "n %d" n,
        Printf.sprintf "n %d exceeds %d" n Rdt_store.Record.max_dv_len ))
    [ Rdt_store.Record.max_dv_len + 1; 100_000_000_000 ]

let non_rdt_protocol =
  [ ("protocol bcs", "protocol \"bcs\" does not guarantee RDT") ]

let test_load_missing_file () =
  match Scenario.load "no-such-dir/missing.scn" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a scenario from a missing file"

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
  (* beside [scratch], which every durable harness run wipes *)
  let dir = scratch ^ "-corpus" in
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
    reproducer_files = (fun () -> [ (".stub", "stub\n") ]);
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

(* --- committed corpus ---------------------------------------------------- *)

(* `dune runtest` runs in the test sandbox (corpus/ alongside the exe);
   `dune exec test/test_main.exe` runs from the project root *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scn")
  |> List.sort compare

let test_corpus_replays_clean () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      match Scenario.load (Filename.concat corpus_dir f) with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok sc ->
        let r = Harness.run sc in
        Alcotest.(check int)
          (Printf.sprintf "%s passes the oracles" f)
          0
          (List.length r.Harness.violations))
    files

let test_corpus_regenerates () =
  (* the generator transcribes the engine's trace for simulated-mode
     scenarios, so regenerating a committed file from its seed is an
     end-to-end check on the event order.  Hand-built scenarios carry
     seed 0 by convention and have no generator to regenerate from;
     shrunk reproducers (.min.scn) keep their discovery seed for
     provenance but are ddmin output, not generator output. *)
  List.iter
    (fun f ->
      match Scenario.load (Filename.concat corpus_dir f) with
      | _ when Filename.check_suffix f ".min.scn" -> ()
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok committed when committed.Scenario.seed = 0 -> ()
      | Ok committed ->
        let regen =
          Scenario.generate ~seed:committed.Scenario.seed ~max_procs:6 ()
        in
        Alcotest.(check string)
          (Printf.sprintf "%s regenerated from its seed" f)
          (Scenario.to_string committed) (Scenario.to_string regen))
    (corpus_files ())

let suite =
  [
    Alcotest.test_case "campaigns are byte-reproducible" `Quick
      test_deterministic;
    Alcotest.test_case "clean campaign finds no violations" `Quick
      test_clean_campaign;
    Alcotest.test_case "over-collecting mutant is caught and shrunk" `Quick
      test_mutant_caught_and_shrunk;
    Alcotest.test_case "corpus format roundtrips" `Quick test_roundtrip;
    Alcotest.test_case "parser rejects n past the longest record DV" `Quick
      (test_parse_rejects huge_n);
    Alcotest.test_case "parser rejects a protocol without RDT" `Quick
      (test_parse_rejects non_rdt_protocol);
    Alcotest.test_case "loading a missing file is an error" `Quick
      test_load_missing_file;
    Alcotest.test_case "normalization repairs ill-formed op lists" `Quick
      test_normalize;
    Alcotest.test_case "corpus replay works as regression gate" `Quick
      test_corpus_replay;
    Alcotest.test_case "durable scenarios recover exactly on reopen" `Quick
      test_durable_epilogue;
    Alcotest.test_case "campaign driver reports, shrinks and saves a stub arm"
      `Quick test_driver_stub_arm;
    Alcotest.test_case "corpus replays clean" `Quick test_corpus_replays_clean;
    Alcotest.test_case "corpus regenerates from its seeds" `Quick
      test_corpus_regenerates;
  ]
