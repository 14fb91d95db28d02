(* stack_bench: the full-stack benchmark (see README.md here).

     stack_bench run [--seed N] [--trace] [--workload W]...
       every workload, each in its own [drive] process, one at a time;
       prints [workload metric value unit] lines, writes result.json under
       --out, exits 1 if any correctness check failed
     stack_bench selfcheck [--runs K]
       two sets of K untraced runs of every workload, alternating; fails
       when the two medians of an end-to-end metric differ by more than
       its bound
     stack_bench drive --workload W [--seed N] [--seconds S] [--trace 0|1]
       one workload in this process: its metric lines, then a one-line
       JSON summary of the metrics BENCHMARK.json lists (bench.sh runs
       this; so do [run] and [selfcheck], once per workload)
     stack_bench arm --workload W --arm A ...
       one sim run in this process (what the sim workloads spawn) *)

open Cmdliner
open Bench_stack

let seed_arg =
  Arg.(value & opt int 7
       & info [ "seed" ] ~docv:"N" ~doc:"Seed every workload derives its inputs from.")

let scale_arg =
  let parse s =
    match Catalog.scale_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg "expected full or smoke")
  in
  let scale_conv =
    Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Catalog.scale_name s))
  in
  Arg.(value & opt scale_conv Catalog.Full & info [ "scale" ] ~docv:"SCALE"
         ~doc:"Workload size: $(b,full) (the benchmark) or $(b,smoke) (the test suite's).")

let seconds_arg =
  Arg.(value & opt float 20.0 & info [ "seconds" ] ~docv:"S"
         ~doc:"Measuring time per workload: sim runs are repeated until the next would \
               overrun it, and the live scenario is sized to fill it.")

let out_arg =
  Arg.(value & opt string (Filename.concat "_build" "stack-bench") & info [ "out" ] ~docv:"DIR"
         ~doc:"Where results, span files and scratch stores go.")

let cli_arg =
  Arg.(value & opt (some string) None & info [ "cli" ] ~docv:"EXE"
         ~doc:"Node executable for live-tcp (default: bin/rdtgc_cli.exe of this build tree).")

let save_arg =
  Arg.(value & opt (some string) None & info [ "save-scenario" ] ~docv:"PATH"
         ~doc:"Write the generated live scenario here; $(b,rdtgc cluster-run PATH --backend \
               exec) replays it.")

let workload_conv =
  let parse s =
    if List.mem s Catalog.workloads then Ok s
    else Error (`Msg ("expected one of " ^ String.concat ", " Catalog.workloads))
  in
  Arg.conv (parse, Format.pp_print_string)

let workloads_arg =
  Arg.(value & opt_all workload_conv [] & info [ "workload" ] ~docv:"W"
         ~doc:"Run only this workload (repeatable; default: all).")

let one_workload_arg =
  Arg.(required & opt (some workload_conv) None
       & info [ "workload" ] ~docv:"W" ~doc:"The workload.")

let cli_of = function Some c -> Self.absolute c | None -> Bench.default_cli ()

(* One workload in a [drive] process of its own. *)
let spawn_drive ~workload ~scale ~seed ~seconds ~trace ~out ~cli ~save_scenario =
  let argv =
    [ "drive"; "--workload"; workload; "--seed"; string_of_int seed;
      "--scale"; Catalog.scale_name scale; "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if trace then "1" else "0"); "--out"; out; "--cli"; cli ]
    @ match save_scenario with Some p -> [ "--save-scenario"; p ] | None -> []
  in
  let result = Bench.result_file ~out workload in
  (try Sys.remove result with Sys_error _ -> ());
  let status = Self.run argv in
  match (Self.read_result result : Report.t option) with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "%s: no result (%s)" workload (Self.describe status))

let selected = function [] -> Catalog.workloads | ws -> ws

(* --- run ------------------------------------------------------------------------ *)

let do_run seed scale seconds trace out cli save_scenario workloads =
  Bench.prepare_out out;
  let cli = cli_of cli in
  let results =
    List.map
      (fun workload ->
        let r = spawn_drive ~workload ~scale ~seed ~seconds ~trace ~out ~cli ~save_scenario in
        (match r with
        | Ok r -> Report.print_lines stdout r
        | Error e -> Printf.printf "%s\n%!" e);
        r)
      (selected workloads)
  in
  let reports = List.filter_map Result.to_option results in
  Json.write_file (Filename.concat out "result.json")
    (Json.Obj
       [
         ("seed", Json.Num (float seed));
         ("scale", Json.Str (Catalog.scale_name scale));
         ("traced", Json.Bool trace);
         ("workloads", Json.Arr (List.map Report.to_json reports));
       ]);
  let ok = List.for_all (function Ok r -> Report.correct r | Error _ -> false) results in
  Printf.printf "%s (results in %s)\n" (if ok then "all checks passed" else "CHECKS FAILED")
    (Filename.concat out "result.json");
  if ok then 0 else 1

let run_cmd =
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Traced pass instead: per-layer metrics too, and a span file per workload.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run every workload, each in its own child process.")
    Term.(const do_run $ seed_arg $ scale_arg $ seconds_arg $ trace $ out_arg $ cli_arg
          $ save_arg $ workloads_arg)

(* --- drive ---------------------------------------------------------------------- *)

(* The metric lines, then the summary an outside runner reads: the
   shared end-to-end metrics untraced, every per-layer metric traced.  A
   per-layer metric absent from a workload belongs to a layer the
   workload never reaches, so its count and time there are zero.  An
   absent end-to-end metric is a benchmark bug unless the run failed. *)
let do_drive workload seed scale seconds trace out cli save_scenario =
  Bench.prepare_out out;
  let r = Bench.run ~workload ~scale ~seed ~seconds ~trace ~out ~cli:(cli_of cli) ~save_scenario in
  Report.print_lines stdout r;
  let correct = Report.correct r in
  let listed =
    if trace then List.map (fun (n, _, _) -> n) Catalog.per_layer else Catalog.shared_end_to_end
  in
  let value name =
    match List.assoc_opt name r.Report.metrics with
    | Some v when Float.is_finite v -> Some v
    | Some _ | None -> if trace || not correct then Some 0.0 else None
  in
  match List.filter (fun name -> value name = None) listed with
  | _ :: _ as missing ->
    Printf.eprintf "%s: no value for %s\n%!" workload (String.concat ", " missing);
    2
  | [] ->
    let metrics =
      List.map
        (fun name ->
          ( name,
            Json.Obj
              [ ("value", Json.Num (Option.get (value name)));
                ("unit", Json.Str (Report.unit_of name)) ] ))
        listed
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool correct);
              ("attempted", Json.Num (float r.Report.attempted));
              ("failed", Json.Num (float r.Report.failed));
              ("metrics", Json.Obj metrics);
            ]));
    if correct then 0 else 1

let drive_cmd =
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"1: the traced pass, summarising the per-layer metrics instead of the \
                   end-to-end ones.")
  in
  Cmd.v (Cmd.info "drive" ~doc:"Run one workload and print a one-line JSON summary.")
    Term.(const do_drive $ one_workload_arg $ seed_arg $ scale_arg $ seconds_arg $ trace
          $ out_arg $ cli_arg $ save_arg)

(* --- selfcheck ------------------------------------------------------------------ *)

let do_selfcheck runs seed scale seconds out cli workloads =
  Bench.prepare_out out;
  let cli = cli_of cli in
  let workloads = selected workloads in
  let failures = ref [] in
  let one k workload i =
    Printf.eprintf "selfcheck: %s, run %d/%d of set %d\n%!" workload (i + 1) runs k;
    match
      spawn_drive ~workload ~scale ~seed ~seconds ~trace:false ~out ~cli ~save_scenario:None
    with
    | Ok r ->
      if not (Report.correct r) then
        failures := (workload ^ ": correctness check failed") :: !failures;
      r.Report.metrics
    | Error e ->
      failures := e :: !failures;
      []
  in
  (* The sets alternate run by run, and which goes first alternates too,
     as a comparison of two builds would run: a slow drift of the host
     then lands on both sets instead of separating them. *)
  let sets =
    List.map
      (fun workload ->
        let runs =
          List.init runs (fun i ->
              if i mod 2 = 0 then
                let a = one 1 workload i in
                (a, one 2 workload i)
              else
                let b = one 2 workload i in
                (one 1 workload i, b))
        in
        (workload, List.split runs))
      workloads
  in
  Printf.printf "%-12s %-24s %14s %14s %8s %8s %8s  %s\n" "workload" "metric" "median-1"
    "median-2" "diff%" "iqr%" "bound%" "verdict";
  let rows =
    List.concat_map
      (fun (workload, (ra, rb)) ->
        let names =
          List.filter
            (fun (n, _, _) -> List.for_all (List.mem_assoc n) (ra @ rb))
            Catalog.end_to_end
        in
        List.map
          (fun (name, unit_, _) ->
            let vals rs = Array.of_list (List.map (List.assoc name) rs) in
            let va = vals ra and vb = vals rb in
            let q1, m1, q3 = Report.quartiles va in
            let _, m2, _ = Report.quartiles vb in
            let b = Catalog.bound name ~workload in
            let exact = b = Catalog.exact in
            let diff = Float.abs (m2 -. m1) in
            let ok =
              if exact then Array.for_all (fun v -> v = va.(0)) (Array.append va vb)
              else diff <= Float.max (b.Catalog.rel *. Float.abs m1) b.Catalog.abs
            in
            let pct x = if m1 = 0.0 then 0.0 else 100.0 *. x /. Float.abs m1 in
            Printf.printf "%-12s %-24s %14.6g %14.6g %8.2f %8.2f %8s  %s\n" workload name m1 m2
              (pct diff) (pct (q3 -. q1))
              (if exact then "exact" else Printf.sprintf "%.0f" (100.0 *. b.Catalog.rel))
              (if ok then "ok" else "FAIL");
            if not ok then failures := Printf.sprintf "%s %s" workload name :: !failures;
            Json.Obj
              [
                ("workload", Json.Str workload);
                ("metric", Json.Str name);
                ("unit", Json.Str unit_);
                ("set1", Json.Arr (Array.to_list (Array.map (fun v -> Json.Num v) va)));
                ("set2", Json.Arr (Array.to_list (Array.map (fun v -> Json.Num v) vb)));
                ("median1", Json.Num m1);
                ("median2", Json.Num m2);
                ("bound_rel", Json.Num b.Catalog.rel);
                ("bound_abs", Json.Num b.Catalog.abs);
                ("ok", Json.Bool ok);
              ])
          names)
      sets
  in
  Json.write_file (Filename.concat out "selfcheck.json")
    (Json.Obj
       [
         ("seed", Json.Num (float seed));
         ("runs_per_set", Json.Num (float runs));
         ("rows", Json.Arr rows);
         ("failures", Json.Arr (List.rev_map (fun f -> Json.Str f) !failures));
       ]);
  List.iter (Printf.printf "FAIL: %s\n") (List.rev !failures);
  if !failures = [] then 0 else 1

let selfcheck_cmd =
  let runs = Arg.(value & opt int 5 & info [ "runs" ] ~docv:"K" ~doc:"Runs per set.") in
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:"Two sets of K same-seed runs of every workload, alternating; fail when an \
             end-to-end median moves by more than its bound.")
    Term.(const do_selfcheck $ runs $ seed_arg $ scale_arg $ seconds_arg $ out_arg $ cli_arg
          $ workloads_arg)

(* --- arm --------------------------------------------------------------------- *)

let do_arm workload seed scale arm live_words dir result spans =
  Sim_bench.arm_main ~workload ~scale ~seed ~arm ~measure_live:live_words ~dir
    ~result ~spans_csv:spans;
  0

let arm_cmd =
  let str name doc = Arg.(required & opt (some string) None & info [ name ] ~docv:"X" ~doc) in
  let arm = str "arm" "untraced, muted or traced." in
  let dir = str "dir" "Fresh directory for the run's durable store." in
  let result = str "result" "Where to write the run's outcome." in
  let live =
    Arg.(value & flag & info [ "live-words" ] ~doc:"Measure the heap the run leaves live.")
  in
  let spans =
    Arg.(value & opt (some string) None
         & info [ "spans" ] ~docv:"FILE" ~doc:"Span file (traced arm).")
  in
  Cmd.v (Cmd.info "arm" ~doc:"One sim run in this process (spawned per run by the sim workloads).")
    Term.(const do_arm $ one_workload_arg $ seed_arg $ scale_arg $ arm $ live $ dir $ result
          $ spans)

let () =
  let info = Cmd.info "stack_bench" ~doc:"Layer-attributed full-stack benchmark." in
  exit (Cmd.eval' (Cmd.group info [ run_cmd; selfcheck_cmd; drive_cmd; arm_cmd ]))
