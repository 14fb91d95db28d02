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

(* A corpus scenario whose sibling schedule cannot be read is a broken
   corpus entry: the campaign fails and names it. *)
let test_unreadable_nemesis () =
  let dir = scratch "corpus" in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf dir)
    (fun () ->
      let corpus = Filename.concat dir "corpus" in
      Harness.mkdir_p (Filename.concat corpus "x.nms");
      let smoke =
        In_channel.with_open_bin
          (Filename.concat
             (if Sys.file_exists "corpus" then "corpus" else "test/corpus")
             "live_smoke.scn")
          In_channel.input_all
      in
      write (Filename.concat corpus "x.scn") smoke;
      let code, output =
        Helpers.run_cli
          [
            "live-fuzz"; "--runs"; "0"; "--backend"; "sim"; "--corpus"; corpus;
            "--root"; Filename.concat dir "run";
          ]
      in
      check_refused "live-fuzz" ~code ~output
        ~expect:"corpus x.scn: RUN-FAILED(unreadable nemesis")

(* The default collector, rdt-lgc, needs an RDT protocol. *)
let test_run_rejects_config () =
  let code, output = Helpers.run_cli [ "run"; "--protocol"; "none" ] in
  check_refused "run --protocol none" ~code ~output
    ~expect:
      "rdtgc: Sim_config: garbage collection requires an RDT protocol"

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

let suite =
  [
    Alcotest.test_case "inspect reports a bad trace line" `Quick
      test_inspect_bad_line;
    Alcotest.test_case "inspect reports an orphan receive" `Quick
      test_inspect_orphan_receive;
    Alcotest.test_case "live-fuzz reports an unreadable schedule" `Quick
      test_unreadable_nemesis;
    Alcotest.test_case "run reports an invalid config" `Quick
      test_run_rejects_config;
    Alcotest.test_case "run reports a used store directory" `Quick
      test_run_rejects_used_store_dir;
  ]
