(* perf-diff's r² floor on a two-file fixture: rows whose time fit is
   poor in either file are reported as ungated instead of warned about,
   and derived figures built on them are labelled. *)

let row ?(allocs = 0.0) name ~ns ~r2 =
  Printf.sprintf
    "    { \"name\": \"%s\", \"ns_per_run\": %.4f, \"r_square\": %.4f, \
     \"allocs_per_run\": %.4f, \"promoted_per_run\": 0.0000, \
     \"events_per_sec\": null },"
    name ns r2 allocs

let fixture rows =
  let path = Filename.temp_file "perf_diff" ".json" in
  let oc = open_out path in
  output_string oc
    (String.concat "\n"
       ([ "{"; "  \"schema\": \"rdtgc-bench-micro/4\","; "  \"benchmarks\": [" ]
       @ rows
       @ [ "  ]"; "}" ]));
  close_out oc;
  path

let baseline () =
  fixture
    [
      row "engine/steady" ~ns:100.0 ~r2:0.95;
      row "per-event/noisy/n=8" ~ns:100.0 ~r2:0.04;
      row "recovery-line/n=32" ~ns:100.0 ~r2:0.90;
      row "ccp/full-rebuild" ~ns:1e6 ~r2:0.95;
      row "ccp/incremental-append/10k-events" ~ns:300.0 ~r2:0.20;
    ]

let current () =
  fixture
    [
      (* +50%, well fitted: a real regression *)
      row "engine/steady" ~ns:150.0 ~r2:0.95;
      (* +200%, but the baseline fit explains nothing *)
      row "per-event/noisy/n=8" ~ns:300.0 ~r2:0.90;
      (* +100% with a poor fresh fit, and allocation growth, which r²
         does not describe *)
      row "recovery-line/n=32" ~ns:200.0 ~r2:0.10 ~allocs:64.0;
      row "ccp/full-rebuild" ~ns:1e6 ~r2:0.95;
      row "ccp/incremental-append/10k-events" ~ns:600.0 ~r2:0.20;
    ]

let about name lines = List.filter (fun l -> Helpers.contains l name) lines

let test_r2_floor () =
  let b = baseline () and c = current () in
  let lines, fatal =
    Fun.protect
      ~finally:(fun () ->
        Sys.remove b;
        Sys.remove c)
      (fun () -> Perf_diff.compare_files ~baseline:b ~current:c)
  in
  Alcotest.(check int) "comparable files" 0 fatal;
  let check_one name ~prefix =
    match about name lines with
    | [ l ] when String.starts_with ~prefix l -> ()
    | ls ->
      Alcotest.failf "%s: expected one line starting %S, got [%s]" name prefix
        (String.concat " | " ls)
  in
  check_one "engine/steady" ~prefix:"WARN";
  check_one "per-event/noisy/n=8" ~prefix:"INFO";
  Alcotest.(check bool) "ungated rows say why" true
    (List.for_all
       (fun name ->
         List.exists
           (fun l ->
             String.starts_with ~prefix:"INFO" l && Helpers.contains l "not gated (r²")
           (about name lines))
       [
         "per-event/noisy/n=8";
         "recovery-line/n=32";
         "ccp/incremental-append/10k-events";
       ]);
  (match about "recovery-line/n=32" lines with
  | [ info; warn ]
    when String.starts_with ~prefix:"INFO" info
         && String.starts_with ~prefix:"WARN" warn
         && Helpers.contains warn "allocation growth" ->
    ()
  | ls ->
    Alcotest.failf "recovery-line: expected INFO then allocation WARN, got [%s]"
      (String.concat " | " ls));
  Alcotest.(check bool) "derived figure labelled" true
    (List.exists
       (fun l ->
         String.starts_with ~prefix:"INFO derived ccp_incremental_speedup" l
         && Helpers.contains l "ccp/incremental-append/10k-events"
         && not (Helpers.contains l "ccp/full-rebuild"))
       lines);
  Alcotest.(check bool) "two warnings in the tally" true
    (List.exists (fun l -> Helpers.contains l "perf-diff: 2 warning(s)") lines)

let suite =
  [ Alcotest.test_case "r² floor ungates noisy rows" `Quick test_r2_floor ]
