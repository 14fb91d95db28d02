(* The CLI on input from outside: a file it cannot use is reported as
   "cannot load FILE: ..." with exit 1 (or, in a corpus, as a broken
   entry), and a configuration it cannot run as "rdtgc: ..." with exit 1,
   never as an uncaught exception. *)

module Harness = Rdt_verify.Harness

let scratch name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rdtgc-cli-%s-%d" name (Unix.getpid ()))
  in
  Harness.rm_rf dir;
  Harness.mkdir_p dir;
  dir

let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let check_refused what ~code ~output ~expect =
  Alcotest.(check int) (what ^ ": exit code") 1 code;
  if not (Helpers.contains output expect) then
    Alcotest.failf "%s: output lacks %S:\n%s" what expect output

let inspect_refuses name text ~expect () =
  let dir = scratch name in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf dir)
    (fun () ->
      let file = Filename.concat dir "t.trace" in
      write file text;
      let code, output = Helpers.run_cli [ "inspect"; file ] in
      check_refused ("inspect " ^ name) ~code ~output
        ~expect:(Printf.sprintf "cannot load %s: %s" file expect))

let test_inspect_bad_line =
  inspect_refuses "bad-line" "rdtgc-trace 1\nn 2\nC 0 0\nQ 1 2\n"
    ~expect:"Trace.of_channel: bad line \"Q 1 2\""

let test_inspect_orphan_receive =
  inspect_refuses "orphan" "rdtgc-trace 1\nn 2\nC 0 0\nC 1 0\nR 1 5 0\n"
    ~expect:"Ccp.of_trace: orphan receive"

let smoke_scenario () =
  In_channel.with_open_bin
    (Filename.concat
       (if Sys.file_exists "corpus" then "corpus" else "test/corpus")
       "live_smoke.scn")
    In_channel.input_all

(* A corpus scenario whose sibling schedule cannot be read is a broken
   corpus entry: the campaign fails and names it. *)
let test_unreadable_nemesis () =
  let dir = scratch "corpus" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf dir)
    (fun () ->
      let corpus = Filename.concat dir "corpus" in
      Harness.mkdir_p (Filename.concat corpus "x.nms");
      write (Filename.concat corpus "x.scn") (smoke_scenario ());
      let code, output =
        Helpers.run_cli
          [
            "live-fuzz"; "--runs"; "0"; "--backend"; "sim"; "--corpus"; corpus;
            "--root"; Filename.concat dir "run";
          ]
      in
      check_refused "live-fuzz" ~code ~output
        ~expect:"corpus x.scn: RUN-FAILED(unreadable nemesis")

(* A scenario file naming a protocol without RDT is refused on load by
   every command that reads one, before anything runs; in a corpus it is
   one broken entry, not the end of the campaign. *)
let test_non_rdt_scenario () =
  let dir = scratch "non-rdt" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf dir)
    (fun () ->
      let corpus = Filename.concat dir "corpus" in
      Harness.mkdir_p corpus;
      let file = Filename.concat corpus "bcs.scn" in
      String.split_on_char '\n' (smoke_scenario ())
      |> List.map (fun l ->
             if String.starts_with ~prefix:"protocol " l then "protocol bcs"
             else l)
      |> String.concat "\n" |> write file;
      let why = "protocol \"bcs\" does not guarantee RDT" in
      let cannot_load = Printf.sprintf "cannot load %s: %s" file why in
      List.iter
        (fun (args, expect) ->
          let code, output = Helpers.run_cli args in
          check_refused (String.concat " " args) ~code ~output ~expect)
        [
          ([ "fuzz"; "--replay"; file ], cannot_load);
          ( [ "fuzz"; "--corpus"; corpus; "--runs"; "0" ],
            Printf.sprintf "corpus bcs.scn: unreadable (%s" why );
          ( [
              "cluster-run"; file; "--backend"; "sim"; "--root";
              Filename.concat dir "run";
            ],
            cannot_load );
        ])

(* The default collector, rdt-lgc, needs an RDT protocol, every
   duration, interval, period, probability and size must be in range, and
   so must the seed and run counts of sweep and the fuzz campaigns. *)
let test_run_rejects_config () =
  let refused cmd args ~expect =
    let code, output = Helpers.run_cli (cmd :: args) in
    check_refused (String.concat " " (cmd :: args)) ~code ~output ~expect
  in
  refused "run" [ "--protocol"; "none" ]
    ~expect:"rdtgc: Sim_config: garbage collection requires an RDT protocol";
  refused "run" [ "--protocol"; "none"; "--gc"; "none"; "--crash"; "1@20+2" ]
    ~expect:"rdtgc: Sim_config: crash faults require an RDT protocol";
  (* NaN fails every comparison, so a "<= 0" test lets it through (a NaN
     duration would simulate nothing and exit 0).  An infinite duration
     is left to the validation unit test in test_runner, which starts no
     run. *)
  refused "run" [ "--duration=nan" ]
    ~expect:"rdtgc: Sim_config: duration must be finite and positive";
  refused "run" [ "--gc=lazy:nan" ]
    ~expect:"rdtgc: Sim_config: GC period must be finite and positive";
  refused "run" [ "--ckpt-bytes=-5" ]
    ~expect:"rdtgc: Sim_config: ckpt_bytes must be >= 0";
  refused "run" [ "--loss=nan" ]
    ~expect:"rdtgc: Network.create: bad loss probability";
  refused "run" [ "--send-interval=nan" ]
    ~expect:"rdtgc: Workload.create: intervals must be finite and positive";
  refused "run" [ "--reply-probability=2" ]
    ~expect:"rdtgc: Workload.create: reply probability must lie in [0, 1]";
  (* a count that runs nothing would print zeros, or an empty campaign,
     and exit 0; [--runs 0] stays valid, it replays the corpus only *)
  refused "sweep" [ "--seeds"; "0" ]
    ~expect:"rdtgc: --seeds must be at least 1, got 0";
  refused "sweep" [ "--seeds=-2" ]
    ~expect:"rdtgc: --seeds must be at least 1, got -2";
  refused "fuzz" [ "--runs=-3" ]
    ~expect:"rdtgc: --runs must be at least 0, got -3";
  refused "live-fuzz" [ "--runs=-1" ]
    ~expect:"rdtgc: --runs must be at least 0, got -1";
  (* an option value that does not parse is the option parser's usage
     error, exit 124 *)
  let unparsed args ~expect =
    let code, output = Helpers.run_cli ("run" :: args) in
    let what = String.concat " " ("run" :: args) in
    Alcotest.(check int) (what ^ ": exit code") 124 code;
    if not (Helpers.contains output expect) then
      Alcotest.failf "%s: output lacks %S:\n%s" what expect output
  in
  unparsed [ "--crash"; "1@20+2junk" ] ~expect:"expected PID@TIME+REPAIR";
  unparsed [ "--pattern"; "bursty:0" ]
    ~expect:"client-server:<k> or bursty:<k>"

(* A durable run needs a fresh store directory; a second run over the
   first one's is refused. *)
let test_run_rejects_used_store_dir () =
  let dir = scratch "store" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf dir)
    (fun () ->
      let store = Filename.concat dir "s" in
      let run () =
        Helpers.run_cli [ "run"; "--duration"; "5"; "--store-dir"; store ]
      in
      let code, output = run () in
      if code <> 0 then Alcotest.failf "first run exited %d:\n%s" code output;
      let code, output = run () in
      check_refused "second run" ~code ~output
        ~expect:
          (Printf.sprintf "rdtgc: Runner.create: store directory %s already \
                           holds checkpoints" store))

(* Every path under [dir], sorted. *)
let rec listing dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then path :: listing path else [ path ])

(* store-stats only reads: directories whose names [int_of_string]
   would take for a pid but which are not a pid's canonical name get no
   row and are not turned into stores. *)
let test_store_stats_ignores_stray_dirs () =
  let dir = scratch "stats" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf dir)
    (fun () ->
      let store = Filename.concat dir "s" in
      let code, output =
        Helpers.run_cli
          [ "run"; "-n"; "2"; "--duration"; "5"; "--store-dir"; store ]
      in
      if code <> 0 then Alcotest.failf "run exited %d:\n%s" code output;
      List.iter
        (fun name -> Unix.mkdir (Filename.concat store name) 0o755)
        [ "p+5"; "p0x4"; "p00"; "p-1" ];
      let before = listing store in
      let code, output = Helpers.run_cli [ "store-stats"; store ] in
      Alcotest.(check int) "exit code" 0 code;
      let rows =
        String.split_on_char '\n' output
        |> List.filter_map (fun line ->
               match String.index_opt line '|' with
               | Some i -> Some (String.trim (String.sub line 0 i))
               | None -> None)
      in
      Alcotest.(check (list string)) "rows printed"
        [ "process"; "p0"; "p1"; "total" ] rows;
      Alcotest.(check (list string)) "directory listing unchanged" before
        (listing store))

(* The durable store's on-disk bytes are a function of the seed: two runs
   shaped like the sim-durable benchmark (4 KiB checkpoints, two crashes,
   compaction) leave byte-identical store directories. *)
let test_store_bytes_deterministic () =
  let dir = scratch "determinism" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf dir)
    (fun () ->
      (* every path under the store, relative to it, with a file's bytes *)
      let run name =
        let store = Filename.concat dir name in
        let code, output =
          Helpers.run_cli
            [ "run"; "-n"; "16"; "--duration"; "300"; "--seed"; "7";
              "--ckpt-bytes"; "4096"; "--ckpt-interval"; "2";
              "--crash"; "3@60+5"; "--crash"; "7@120+5"; "--store-dir"; store ]
        in
        if code <> 0 then Alcotest.failf "run %s exited %d:\n%s" name code output;
        let skip = String.length store + 1 in
        List.map
          (fun path ->
            ( String.sub path skip (String.length path - skip),
              if Sys.is_directory path then None
              else Some (In_channel.with_open_bin path In_channel.input_all) ))
          (listing store)
      in
      let a = run "a" and b = run "b" in
      Alcotest.(check bool) "the run wrote a store" true (a <> []);
      Alcotest.(check (list string)) "same listing" (List.map fst a)
        (List.map fst b);
      List.iter2
        (fun (path, x) (_, y) ->
          if not (Option.equal String.equal x y) then
            Alcotest.failf "%s differs between the runs" path)
        a b)

let suite =
  [
    Alcotest.test_case "inspect reports a bad trace line" `Quick
      test_inspect_bad_line;
    Alcotest.test_case "inspect reports an orphan receive" `Quick
      test_inspect_orphan_receive;
    Alcotest.test_case "live-fuzz reports an unreadable schedule" `Quick
      test_unreadable_nemesis;
    Alcotest.test_case "a scenario without RDT is refused on load" `Quick
      test_non_rdt_scenario;
    Alcotest.test_case "run reports an invalid config" `Quick
      test_run_rejects_config;
    Alcotest.test_case "run reports a used store directory" `Quick
      test_run_rejects_used_store_dir;
    Alcotest.test_case "store-stats ignores stray directories" `Quick
      test_store_stats_ignores_stray_dirs;
    Alcotest.test_case "two identical durable runs leave identical stores"
      `Quick test_store_bytes_deterministic;
  ]
