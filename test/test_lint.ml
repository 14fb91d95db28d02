(* rdt_lint test suite.  Three layers:

   - fixture goldens: every file under lint_fixtures/ carries
     (* EXPECT rule-id *) annotations on the lines that must be flagged;
     the scanner's findings over the fixture .cmt files must match them
     exactly, per rule family;
   - reporter goldens: exact text rendering for a fixed synthetic
     summary, and the exit status of a whole run;
   - qcheck properties: the suppression matcher silences exactly the
     annotated rule (or its family). *)

module Lint = Rdt_lint.Lint
module Lint_config = Rdt_lint.Lint_config
module Finding = Rdt_lint.Finding
module Suppress = Rdt_lint.Suppress
module Rules = Rdt_lint.Rules
module Report = Rdt_lint.Report

(* The test binary runs from _build/default/test, where dune keeps both
   the fixture sources and the .cmt files of the lint_fixtures library. *)
let fixture_dir = "lint_fixtures"

let fixture_cfg =
  {
    Lint_config.lib_prefixes = [ "test/lint_fixtures/" ];
    hashtbl_det_prefixes = [ "test/lint_fixtures/det_" ];
    realtime_prefixes = [ "test/lint_fixtures/realtime_ok" ];
    unsafe_allowlist = [ "test/lint_fixtures/unsafe_ok.ml" ];
    test_prefixes = [ "test/lint_fixtures/dead_test_" ];
  }

let scan_result =
  lazy (Lint.scan ~cfg:fixture_cfg ~root:"." ~dirs:[ fixture_dir ] ())

let site_compare (l1, r1) (l2, r2) =
  match Int.compare l1 l2 with 0 -> String.compare r1 r2 | c -> c

let findings_of file =
  let s = Lazy.force scan_result in
  List.filter_map
    (fun (f : Finding.t) ->
      if String.equal (Filename.basename f.file) file then Some (f.line, f.rule)
      else None)
    s.Report.findings
  |> List.sort site_compare

(* Pull the (line, rule-id) expectations out of a fixture source. *)
let expects_of file =
  let ic = open_in (Filename.concat fixture_dir file) in
  let res = ref [] in
  let line_no = ref 0 in
  let marker = "EXPECT " in
  let mlen = String.length marker in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       let len = String.length line in
       let is_stop c = c = ' ' || c = '*' || c = ')' in
       let rec scan_from i =
         if i + mlen > len then ()
         else if String.equal (String.sub line i mlen) marker then begin
           let j = ref (i + mlen) in
           while !j < len && not (is_stop line.[!j]) do
             incr j
           done;
           res := (!line_no, String.sub line (i + mlen) (!j - i - mlen)) :: !res;
           scan_from !j
         end
         else scan_from (i + 1)
       in
       scan_from 0
     done
   with End_of_file -> ());
  close_in ic;
  List.sort site_compare !res

let check_fixture file () =
  let expected = expects_of file in
  (* guard against a silently empty fixture: every *_bad fixture must
     expect at least one diagnostic *)
  if
    String.length file > 4
    && not (String.equal file "clean_ok.ml")
    && not (String.equal file "unsafe_ok.ml")
  then
    Alcotest.(check bool) (file ^ " has expectations") true
      (not (List.is_empty expected));
  Alcotest.(check (list (pair int string))) file expected (findings_of file)

let test_no_scan_warnings () =
  Alcotest.(check (list string)) "clean discovery" []
    (Lazy.force scan_result).Report.warnings

let test_every_rule_known () =
  let s = Lazy.force scan_result in
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool) (f.rule ^ " registered") true (Rules.is_known f.rule))
    s.Report.findings

let suppressions_in file =
  let s = Lazy.force scan_result in
  List.filter
    (fun ((f : Finding.t), _) ->
      String.equal (Filename.basename f.file) file)
    s.Report.suppressed

let check_not_double_reported file sup =
  let reported = findings_of file in
  List.iter
    (fun ((f : Finding.t), why) ->
      Alcotest.(check bool) "justification recorded" true
        (String.length why > 0);
      Alcotest.(check bool) "suppressed site not double-reported" false
        (List.exists
           (fun (l, r) -> l = f.line && String.equal r f.rule)
           reported))
    sup

let test_suppressed_sites () =
  let s = Lazy.force scan_result in
  let sup = suppressions_in "suppress_fixture.ml" in
  Alcotest.(check int) "exactly the two justified allows" 2 (List.length sup);
  List.iter
    (fun ((f : Finding.t), _) ->
      Alcotest.(check string) "suppressed rule" "polycmp/equal" f.rule)
    sup;
  check_not_double_reported "suppress_fixture.ml" sup;
  (* nothing outside the suppression fixture is suppressed *)
  Alcotest.(check int) "no other suppressions" 2
    (List.length s.Report.suppressed)

(* ---------------- reporter goldens ---------------- *)

let mk ?(sev = Finding.Error) ?(context = "f") rule file line msg =
  { Finding.rule; severity = sev; file; line; col = 4; context; message = msg }

let golden_summary =
  {
    Report.findings =
      [
        mk "det/wall-clock" "lib/sim/clock.ml" 12
          "Unix.gettimeofday reads the wall clock" ~context:"now";
        mk "lint/unused-allow" "lib/gc/x.ml" 3 "allow suppresses nothing"
          ~sev:Finding.Warning ~context:"<attribute>";
      ];
    suppressed =
      [
        ( mk "alloc/list" "lib/causality/dependency_vector.ml" 40
            "List.map allocates list cells on the hot path" ~context:"merge",
          "amortized" );
      ];
    warnings = [ "lint: skipping missing directory libx" ];
  }

let golden_text =
  "lint: skipping missing directory libx\n\
   lib/sim/clock.ml:12:4: [det/wall-clock] Unix.gettimeofday reads the wall \
   clock (in now)\n\
   lib/gc/x.ml:3:4: [lint/unused-allow] allow suppresses nothing (in \
   <attribute>)\n\
   rdt_lint: 1 error, 1 warning, 1 suppressed\n"

let test_text_golden () =
  Alcotest.(check string)
    "text rendering" golden_text
    (Format.asprintf "%a" Report.text golden_summary)

let test_ok_logic () =
  let warn_only =
    {
      Report.findings =
        [ mk "lint/unused-allow" "lib/x.ml" 1 "m" ~sev:Finding.Warning ];
      suppressed = [];
      warnings = [ "w" ];
    }
  in
  Alcotest.(check bool) "warnings alone keep the run green" true
    (Report.ok warn_only)

let test_run_exit_status () =
  (* the fixture tree carries error-severity findings in every family,
     so a whole run over it must fail (rdtgc lint exits 1 when not ok) *)
  Alcotest.(check bool) "errors fail the run" false
    (Report.ok (Lazy.force scan_result))

(* ---------------- qcheck properties ---------------- *)

(* rule ids from every family, and the bare family names *)
let sample_ids =
  [
    "det/random-self-init"; "det/hashtbl-order"; "alloc/tuple"; "alloc/list";
    "unsafe/array"; "polycmp/equal"; "polycmp/compare"; "dead/export";
    "dead/test-only"; "lint/unused-allow";
  ]

let sample_families = [ "det"; "alloc"; "unsafe"; "polycmp"; "dead"; "lint" ]

(* the model of a rule's family: the id up to its slash *)
let family_of rule =
  match String.index_opt rule '/' with
  | None -> rule
  | Some i -> String.sub rule 0 i

let rule_arb = QCheck.make (QCheck.Gen.oneofl sample_ids)

let allow_arb =
  QCheck.make
    (QCheck.Gen.oneof
       [
         QCheck.Gen.oneofl sample_ids;
         QCheck.Gen.oneofl sample_families;
         QCheck.Gen.oneofl
           [ ""; "junk"; "allo"; "det/"; "polycmp/equa"; "polycmp/equal/x" ];
       ])

let prop_exact_site =
  QCheck.Test.make ~count:500
    ~name:"an exact-id allow silences that rule and nothing else"
    (QCheck.pair rule_arb rule_arb)
    (fun (allow_rule, rule) ->
      Bool.equal
        (Suppress.allow_matches ~allow_rule ~justified:true ~rule)
        (String.equal allow_rule rule))

let prop_matches_model =
  QCheck.Test.make ~count:1000
    ~name:"allow_matches = justified && (exact id || family)"
    (QCheck.triple rule_arb allow_arb QCheck.bool)
    (fun (rule, allow_rule, justified) ->
      let expect =
        justified
        && (String.equal allow_rule rule
           || String.equal allow_rule (family_of rule))
      in
      Bool.equal (Suppress.allow_matches ~allow_rule ~justified ~rule) expect)

let suite =
  [
    Alcotest.test_case "determinism family" `Quick (check_fixture "det_bad.ml");
    Alcotest.test_case "allocation family (module-wide)" `Quick
      (check_fixture "alloc_bad.ml");
    Alcotest.test_case "allocation family (named functions)" `Quick
      (check_fixture "alloc_scoped.ml");
    Alcotest.test_case "unsafe-op family" `Quick (check_fixture "unsafe_bad.ml");
    Alcotest.test_case "unsafe-op licensed shape is clean" `Quick
      (check_fixture "unsafe_ok.ml");
    Alcotest.test_case "polymorphic-compare family" `Quick
      (check_fixture "polycmp_bad.ml");
    Alcotest.test_case "approved idioms are clean" `Quick
      (check_fixture "clean_ok.ml");
    Alcotest.test_case "realtime scope admits the wall clock, nothing else"
      `Quick
      (check_fixture "realtime_ok.ml");
    Alcotest.test_case "dead-export family" `Quick
      (check_fixture "dead_lib.mli");
    Alcotest.test_case "suppression meta-rules" `Quick
      (check_fixture "suppress_fixture.ml");
    Alcotest.test_case "suppression silences exactly its site" `Quick
      test_suppressed_sites;
    Alcotest.test_case "fixture discovery is warning-free" `Quick
      test_no_scan_warnings;
    Alcotest.test_case "every emitted rule is registered" `Quick
      test_every_rule_known;
    Alcotest.test_case "text reporter golden" `Quick test_text_golden;
    Alcotest.test_case "a run over findings exits 1" `Quick
      test_run_exit_status;
    Alcotest.test_case "warnings do not fail the run" `Quick test_ok_logic;
    QCheck_alcotest.to_alcotest prop_exact_site;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]
