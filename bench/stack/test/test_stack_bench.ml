(* Smoke test of stack_bench: the benchmark builds, every workload runs
   at smoke scale with its correctness checks passing, the result and
   span files have the documented shape, BENCHMARK.json agrees with the
   benchmark's own metric catalog, and the live scenarios the benchmark
   generates pass the full black-box checker. *)

open Bench_stack
module Json = Json_read
module Scenario = Rdt_verify.Scenario
module Harness = Rdt_verify.Harness

let bench_exe = Filename.concat ".." "stack_bench.exe"
let spec_file = List.fold_left Filename.concat ".." [ ".."; ".."; "BENCHMARK.json" ]
let out = "stack-bench-smoke"

let run_exe args =
  let pid =
    Unix.create_process bench_exe (Array.of_list (bench_exe :: args)) Unix.stdin Unix.stderr
      Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1

(* one traced smoke run of every workload, shared by the tests below *)
let smoke =
  lazy
    (Harness.rm_rf out;
     run_exe
       [ "run"; "--scale"; "smoke"; "--trace"; "--seconds"; "0"; "--seed"; "7"; "--out"; out ])

let result () =
  ignore (Lazy.force smoke);
  Json.read_file (Filename.concat out "result.json")

let spec () = Json.read_file spec_file

let get what = function Some v -> v | None -> Alcotest.failf "missing %s" what
let field k j = get k (Json.member k j)
let str k j = get k (Json.to_str (field k j))
let num k j = get k (Json.to_num (field k j))
let list k j = get k (Json.to_list (field k j))

let workloads () = list "workloads" (result ())

let test_exit () = Alcotest.(check int) "run exit status" 0 (Lazy.force smoke)

let test_result_schema () =
  let r = result () in
  Alcotest.(check string) "scale" "smoke" (str "scale" r);
  Alcotest.(check (list string)) "every workload, in order" Catalog.workloads
    (List.map (str "workload") (workloads ()));
  List.iter
    (fun w ->
      let name = str "workload" w in
      Alcotest.(check bool) (name ^ " correct") true
        (get "correct" (Json.to_bool (field "correct" w)));
      Alcotest.(check bool) (name ^ " attempted >= 1") true (num "attempted" w >= 1.0);
      Alcotest.(check (float 0.0)) (name ^ " failed") 0.0 (num "failed" w);
      List.iter
        (fun c -> ignore (str "name" c, get "ok" (Json.to_bool (field "ok" c)), str "detail" c))
        (list "checks" w);
      List.iter
        (fun m ->
          let mname = str "name" m in
          let info = Catalog.find mname in
          Alcotest.(check string) (mname ^ " unit") info.Catalog.unit_ (str "unit" m);
          Alcotest.(check string) (mname ^ " kind")
            (if info.Catalog.kind = Catalog.End_to_end then "end_to_end" else "per_layer")
            (str "kind" m);
          Alcotest.(check bool) (name ^ " " ^ mname ^ " finite") true
            (Float.is_finite (num "value" m)))
        (list "metrics" w))
    (workloads ())

let metrics w = List.map (fun m -> (str "name" m, num "value" m)) (list "metrics" w)

(* the drive command answers for exactly these, on every workload *)
let test_listed_metrics_everywhere () =
  let e2e = List.map (str "name") (list "end_to_end" (spec ())) in
  List.iter
    (fun w ->
      let ms = metrics w in
      List.iter
        (fun name ->
          Alcotest.(check bool) (str "workload" w ^ " reports " ^ name) true
            (List.mem_assoc name ms);
          Alcotest.(check bool) (str "workload" w ^ " " ^ name ^ " nonzero") true
            (List.assoc name ms <> 0.0))
        e2e;
      Alcotest.(check bool) (str "workload" w ^ " trace_overhead_pct") true
        (List.mem_assoc "trace_overhead_pct" ms))
    (workloads ())

let test_self_times () =
  List.iter
    (fun w ->
      List.iter
        (fun (name, v) ->
          if String.ends_with ~suffix:"self_s" name then
            Alcotest.(check bool) (str "workload" w ^ " " ^ name ^ " >= 0") true (v >= 0.0))
        (metrics w))
    (workloads ())

type span = { id : int; name : string; start : int; stop : int; parent : int }

let read_spans path =
  let ic = open_in path in
  let header = input_line ic in
  let rows = ref [] in
  (try
     while true do
       match String.split_on_char ',' (input_line ic) with
       | [ id; name; start; stop; parent; _run ] ->
         rows :=
           { id = int_of_string id; name; start = int_of_string start; stop = int_of_string stop;
             parent = int_of_string parent }
           :: !rows
       | _ -> Alcotest.failf "%s: malformed row" path
     done
   with End_of_file -> ());
  close_in ic;
  (header, Array.of_list (List.rev !rows))

(* Each span lies inside its parent; which names may nest under which is
   the layering the README documents. *)
let allowed_parent ~child ~parent =
  match child with
  | "sim.run" | "live.run" -> parent = None
  | c when String.starts_with ~prefix:"store." c ->
    parent = Some "sim.run" || parent = Some "gc.checkpoint_stored"
    || parent = Some "gc.new_dependency" || parent = Some "gc.rollback"
  | c when String.starts_with ~prefix:"live." c -> parent = Some "live.run"
  | _ -> parent = Some "sim.run"

let test_spans () =
  List.iter
    (fun workload ->
      let header, spans = read_spans (Filename.concat out (workload ^ ".spans.csv")) in
      Alcotest.(check string) "span header" Spans.header header;
      Alcotest.(check bool) (workload ^ " has spans") true (Array.length spans > 1);
      Array.iteri
        (fun i s ->
          Alcotest.(check int) "ids are row numbers" i s.id;
          Alcotest.(check bool) (s.name ^ " ends after it starts") true (s.stop >= s.start);
          let parent = if s.parent < 0 then None else Some spans.(s.parent) in
          (match parent with
          | Some p ->
            Alcotest.(check bool) (s.name ^ " inside " ^ p.name) true
              (p.start <= s.start && s.stop <= p.stop)
          | None -> ());
          Alcotest.(check bool)
            (Printf.sprintf "%s may nest under %s" s.name
               (match parent with Some p -> p.name | None -> "nothing"))
            true
            (allowed_parent ~child:s.name ~parent:(Option.map (fun p -> p.name) parent)))
        spans)
    Catalog.workloads;
  (* on the durable workload, eliminations run inside the collector *)
  let _, spans = read_spans (Filename.concat out "sim-durable.spans.csv") in
  Alcotest.(check bool) "store.eliminate nests in gc.*" true
    (Array.exists
       (fun s ->
         s.name = "store.eliminate" && s.parent >= 0
         && String.starts_with ~prefix:"gc." spans.(s.parent).name)
       spans)

let test_spec_matches_catalog () =
  let spec = spec () in
  let same section kind =
    List.iter
      (fun m ->
        let name = str "name" m in
        let info = Catalog.find name in
        Alcotest.(check bool) (name ^ " kind") true (info.Catalog.kind = kind);
        Alcotest.(check string) (name ^ " unit") info.Catalog.unit_ (str "unit" m);
        Alcotest.(check string) (name ^ " better") (Catalog.better_name info.Catalog.better)
          (str "better" m))
      (list section spec)
  in
  same "end_to_end" Catalog.End_to_end;
  same "per_layer" Catalog.Per_layer;
  Alcotest.(check (list string)) "the end-to-end metrics drive reports"
    Catalog.shared_end_to_end
    (List.map (str "name") (list "end_to_end" spec));
  Alcotest.(check (list string)) "every per-layer metric is listed"
    (List.map (fun (n, _, _) -> n) Catalog.per_layer)
    (List.map (str "name") (list "per_layer" spec));
  Alcotest.(check (list string)) "workloads" Catalog.workloads
    (List.map (str "name") (list "workloads" spec))

(* the last stdout line of [drive] is its one-line summary *)
let test_drive_summary () =
  let dir = out ^ "-drive" in
  Harness.rm_rf dir;
  let stdout_file = Filename.concat "." (dir ^ ".stdout") in
  let fd = Unix.openfile stdout_file [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process bench_exe
      [| bench_exe; "drive"; "--workload"; "sim-small"; "--scale"; "smoke"; "--seed"; "3";
         "--seconds"; "0"; "--trace"; "0"; "--out"; dir |]
      Unix.stdin fd Unix.stderr
  in
  let status = snd (Unix.waitpid [] pid) in
  Unix.close fd;
  Alcotest.(check bool) "drive exits 0" true (status = Unix.WEXITED 0);
  let ic = open_in stdout_file in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  close_in ic;
  let j = Json.of_string !last in
  (match j with
  | Json.Obj kvs ->
    Alcotest.(check (list string)) "summary keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst kvs)
  | _ -> Alcotest.fail "summary is not an object");
  Alcotest.(check bool) "correct" true (get "correct" (Json.to_bool (field "correct" j)));
  let ms = field "metrics" j in
  (match ms with
  | Json.Obj kvs ->
    Alcotest.(check (list string)) "metrics: BENCHMARK.json's end-to-end ones"
      (List.map (str "name") (list "end_to_end" (spec ())))
      (List.map fst kvs)
  | _ -> Alcotest.fail "metrics is not an object");
  List.iter
    (fun m ->
      let v = field (str "name" m) ms in
      Alcotest.(check bool) (str "name" m ^ " nonzero") true (num "value" v <> 0.0);
      Alcotest.(check string) "unit" (str "unit" m) (str "unit" v))
    (list "end_to_end" (spec ()));
  Harness.rm_rf dir;
  Sys.remove stdout_file

let test_checker_on_generated_scenario () =
  let ops, crash_every = Live_bench.size Catalog.Smoke ~seconds:0.0 in
  let sc = Scenario.normalize (Live_bench.scenario ~seed:7 ~ops ~crash_every) in
  let root = "stack-bench-checker" and scratch = "stack-bench-checker-replay" in
  Fun.protect
    ~finally:(fun () ->
      Harness.rm_rf root;
      Harness.rm_rf scratch)
    (fun () ->
      match Rdt_live.Sim_cluster.run ~scenario:sc ~root () with
      | Error e -> Alcotest.failf "sim cluster run failed: %s" e
      | Ok record ->
        let c = Rdt_live.Checker.check ~record ~root ~scratch_dir:scratch () in
        List.iter
          (fun v -> Format.eprintf "%a@." Rdt_verify.Oracles.pp_violation v)
          c.Rdt_live.Checker.violations;
        Alcotest.(check int) "checker violations" 0 (List.length c.Rdt_live.Checker.violations))

(* the spreads stack_bench prints are the ones Python's
   statistics.quantiles(values, n=4) gives for the same values *)
let test_quartiles () =
  let q1, q2, q3 = Report.quartiles (Array.init 10 (fun i -> float (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  let q1, q2, q3 = Report.quartiles [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (list (float 1e-12))) "three values" [ 1.0; 2.0; 3.0 ] [ q1; q2; q3 ]

let () =
  Alcotest.run "stack_bench"
    [
      ( "smoke",
        [
          Alcotest.test_case "run exits 0" `Quick test_exit;
          Alcotest.test_case "result schema" `Quick test_result_schema;
          Alcotest.test_case "BENCHMARK.json metrics on every workload" `Quick
            test_listed_metrics_everywhere;
          Alcotest.test_case "self times non-negative" `Quick test_self_times;
          Alcotest.test_case "span files" `Quick test_spans;
          Alcotest.test_case "drive summary line" `Quick test_drive_summary;
        ] );
      ( "static",
        [
          Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick test_spec_matches_catalog;
          Alcotest.test_case "checker accepts a generated scenario" `Quick
            test_checker_on_generated_scenario;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
    ]
