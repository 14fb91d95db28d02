(* rdtgc — command-line front end.

   Subcommands:
     run          simulate a checkpointed system and report GC behaviour
     analyze      run a simulation and analyze its CCP (RDT, obsolete set)
     inspect      analyze a saved execution trace
     sweep        compare every garbage collector on one workload
     store-stats  inspect a durable checkpoint store directory
     figure4      replay the paper's Figure 4 execution step by step
     protocols    list the available checkpointing protocols
     fuzz         differential fuzzing against the theorem oracles
     live-fuzz    fuzz whole clusters under nemesis fault schedules
     cluster-run  run one scenario file on a live cluster and check it
     node         one cluster node process (spawned by cluster-run)
     lint         project-invariant static analysis *)

open Cmdliner
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload
module Protocol = Rdt_protocols.Protocol
module Series = Rdt_metrics.Series

(* --- shared argument definitions -------------------------------------- *)

let n_arg =
  Arg.(value & opt int 4 & info [ "n"; "processes" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (runs are deterministic given the seed).")

let duration_arg =
  Arg.(value & opt float 100.0 & info [ "duration" ] ~docv:"T" ~doc:"Virtual duration of the run.")

let protocol_conv =
  let parse s =
    match Protocol.by_id s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown protocol %S (try: %s)" s
             (String.concat ", " (List.map (fun p -> p.Protocol.id) Protocol.all))))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf p.Protocol.id)

let protocol_arg =
  Arg.(value & opt protocol_conv Protocol.fdas
       & info [ "protocol" ] ~docv:"PROTO" ~doc:"Checkpointing protocol: fdas, fdi, bcs, cbr, cas, casbr or none.")

let gc_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "none" ] -> Ok Sim_config.No_gc
    | [ "rdt-lgc" ] | [ "local" ] -> Ok Sim_config.Local
    | [ "lazy"; p ] -> Ok (Sim_config.Local_lazy { period = float_of_string p })
    | [ "coordinated"; p ] -> Ok (Sim_config.Coordinated { period = float_of_string p })
    | [ "simple"; p ] -> Ok (Sim_config.Simple { period = float_of_string p })
    | [ "oracle"; p ] -> Ok (Sim_config.Oracle_periodic { period = float_of_string p })
    | _ ->
      Error
        (`Msg
          "expected none, rdt-lgc, lazy:<period>, coordinated:<period>, \
           simple:<period> or oracle:<period>")
  in
  Arg.conv
    ( (fun s -> try parse s with Failure _ -> Error (`Msg "bad period")),
      fun ppf gc -> Format.pp_print_string ppf (Sim_config.gc_policy_name gc) )

let gc_arg =
  Arg.(value & opt gc_conv Sim_config.Local
       & info [ "gc" ] ~docv:"GC" ~doc:"Garbage collector: none, rdt-lgc, lazy:P, coordinated:P, simple:P, oracle:P.")

let pattern_conv =
  let parse s =
    match Workload.pattern_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg "expected uniform, ring, pipeline, broadcast, client-server:<k> or bursty:<k>")
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Workload.pattern_name p))

let pattern_arg =
  Arg.(value & opt pattern_conv Workload.Uniform
       & info [ "pattern" ] ~docv:"PATTERN" ~doc:"Communication pattern.")

let send_interval_arg =
  Arg.(value & opt float 1.0 & info [ "send-interval" ] ~docv:"T" ~doc:"Mean time between spontaneous sends.")

let ckpt_interval_arg =
  Arg.(value & opt float 5.0 & info [ "ckpt-interval" ] ~docv:"T" ~doc:"Mean time between basic checkpoints.")

let reply_arg =
  Arg.(value & opt float 0.3 & info [ "reply-probability" ] ~docv:"P" ~doc:"Probability a receive triggers a reply.")

let loss_arg =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Message loss probability.")

let fifo_arg =
  Arg.(value & flag & info [ "fifo" ] ~doc:"FIFO channels (default: reordering allowed).")

let crash_conv =
  (* PID@TIME+REPAIR, e.g. 2@40+5 *)
  let parse s =
    try
      Scanf.sscanf s "%d@%f+%f%!" (fun pid crash_at repair_after ->
          Ok { Sim_config.pid; crash_at; repair_after })
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      Error (`Msg "expected PID@TIME+REPAIR, e.g. 2@40+5")
  in
  Arg.conv
    ( parse,
      fun ppf f ->
        Format.fprintf ppf "%d@%g+%g" f.Sim_config.pid f.Sim_config.crash_at
          f.Sim_config.repair_after )

let crash_arg =
  Arg.(value & opt_all crash_conv []
       & info [ "crash" ] ~docv:"PID@TIME+REPAIR" ~doc:"Inject a crash (repeatable).")

let knowledge_conv =
  Arg.conv
    ( (function
       | "global" -> Ok `Global
       | "causal" -> Ok `Causal
       | _ -> Error (`Msg "expected global or causal")),
      fun ppf k ->
        Format.pp_print_string ppf
          (match k with `Global -> "global" | `Causal -> "causal") )

let knowledge_arg =
  Arg.(value & opt knowledge_conv `Global
       & info [ "knowledge" ] ~docv:"MODE" ~doc:"Recovery-session knowledge: global (LI vector) or causal (DV only).")

let series_arg =
  Arg.(value & flag & info [ "series" ] ~doc:"Print the retained-checkpoints time series.")

let store_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "store-dir" ] ~docv:"DIR"
           ~doc:"Persist checkpoints in a log-structured on-disk store under \
                 \\$(docv)/p<pid> (default: in-memory stable storage). The \
                 directory must be fresh; inspect it afterwards with \
                 'rdtgc store-stats \\$(docv)'.")

let ckpt_bytes_arg =
  Arg.(value & opt int 1
       & info [ "ckpt-bytes" ] ~docv:"B"
           ~doc:"Synthetic size of one checkpoint payload (bytes).")

let build_config n seed duration protocol gc pattern send_interval
    ckpt_interval reply loss fifo faults knowledge store_dir ckpt_bytes =
  {
    Sim_config.default with
    n;
    seed;
    duration;
    protocol;
    gc;
    faults;
    knowledge;
    workload =
      {
        Workload.pattern;
        send_mean_interval = send_interval;
        basic_ckpt_mean_interval = ckpt_interval;
        reply_probability = reply;
      };
    net = { Rdt_sim.Network.default with loss_probability = loss; fifo };
    sample_interval = Float.max 1.0 (duration /. 50.0);
    ckpt_bytes;
    store =
      (match store_dir with
      | None -> Sim_config.Memory
      | Some dir ->
        Sim_config.Durable
          { dir; config = Rdt_store.Log_store.default_config });
  }

let config_term =
  Term.(
    const build_config $ n_arg $ seed_arg $ duration_arg $ protocol_arg
    $ gc_arg $ pattern_arg $ send_interval_arg $ ckpt_interval_arg $ reply_arg
    $ loss_arg $ fifo_arg $ crash_arg $ knowledge_arg $ store_dir_arg
    $ ckpt_bytes_arg)

(* --- run --------------------------------------------------------------- *)

(* A configuration [Sim_config.validate] rejects, or a [--store-dir] that
   already holds checkpoints, is the user's mistake: report it and exit 1
   instead of letting the exception out of cmdliner. *)
let or_exit f x =
  try f x
  with Invalid_argument e | Failure e | Sys_error e ->
    Printf.eprintf "rdtgc: %s\n" e;
    exit 1

(* A count flag below [min] would run nothing and still exit 0. *)
let require_at_least ~flag ~min v =
  if v < min then begin
    Printf.eprintf "rdtgc: --%s must be at least %d, got %d\n" flag min v;
    exit 1
  end

let do_run cfg series =
  let t = or_exit Runner.create cfg in
  Runner.run t;
  Runner.sync_stores t;
  Format.printf "%a@." Runner.pp_summary (Runner.summary t);
  List.iter
    (fun r -> Format.printf "%a@." Rdt_recovery.Session.pp_report r)
    (Runner.recoveries t);
  if series then begin
    Format.printf "@.%a@." Series.pp (Runner.total_retained_series t);
    if Series.length (Runner.optimal_retained_series t) > 0 then
      Format.printf "%a@." Series.pp (Runner.optimal_retained_series t)
  end;
  Runner.close_stores t

let run_cmd =
  let doc = "Simulate a checkpointed distributed system with garbage collection." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const do_run $ config_term $ series_arg)

(* --- analyze ------------------------------------------------------------ *)

let analyze_trace trace ccp retained_of =
  Format.printf "%a@.@." Rdt_ccp.Ccp.pp ccp;
  let events = Rdt_ccp.Trace.length trace in
  if events <= 72 then begin
    Rdt_ccp.Diagram.print trace;
    print_newline ()
  end;
  let { Rdt_ccp.Rdt_check.useless; violations } =
    Rdt_ccp.Rdt_check.analyze ~limit:5 ccp
  in
  Format.printf "RD-trackable: %b@." (violations = []);
  List.iter
    (fun v -> Format.printf "  violation: %a@." Rdt_ccp.Rdt_check.pp_violation v)
    violations;
  Format.printf "useless checkpoints: %d@." (List.length useless);
  if violations = [] then begin
    let obsolete = Rdt_gc.Oracle.obsolete ccp in
    Format.printf "obsolete stable checkpoints (Theorem 1): %d@."
      (List.length obsolete);
    for pid = 0 to Rdt_ccp.Ccp.n ccp - 1 do
      let oracle_set =
        String.concat ","
          (List.map string_of_int (Rdt_gc.Oracle.retained ccp ~pid))
      in
      match retained_of pid with
      | Some retained ->
        Format.printf "  p%d retains {%s}; oracle would retain {%s}@." pid
          (String.concat "," (List.map string_of_int retained))
          oracle_set
      | None -> Format.printf "  p%d: oracle would retain {%s}@." pid oracle_set
    done
  end

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "save" ] ~docv:"FILE" ~doc:"Save the execution trace to FILE (reload with 'rdtgc inspect').")

let do_analyze cfg save =
  let t = or_exit (Runner.create ~record:true) cfg in
  Runner.run t;
  (match save with
  | Some path ->
    Rdt_ccp.Trace.save (Runner.trace t) path;
    Format.printf "trace saved to %s@." path
  | None -> ());
  let trace = Runner.trace t in
  analyze_trace trace (Rdt_ccp.Ccp.of_trace trace) (fun pid ->
      Some
        (Rdt_storage.Stable_store.retained_indices
           (Rdt_protocols.Middleware.store (Runner.middleware t pid))))

let analyze_cmd =
  let doc = "Run a simulation and analyze the resulting checkpoint pattern." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const do_analyze $ config_term $ save_arg)

(* --- inspect ------------------------------------------------------------- *)

let do_inspect path =
  (* a file from outside may be malformed or not a CCP at all (a receive
     with no send): report it, like [cluster-run] does a bad scenario *)
  match
    let trace = Rdt_ccp.Trace.load path in
    (trace, Rdt_ccp.Ccp.of_trace trace)
  with
  | exception (Failure e | Invalid_argument e | Sys_error e) ->
    Printf.eprintf "cannot load %s: %s\n" path e;
    exit 1
  | trace, ccp -> analyze_trace trace ccp (fun _ -> None)

let inspect_cmd =
  let doc = "Analyze a previously saved execution trace." in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const do_inspect $ file_arg)

(* --- sweep --------------------------------------------------------------- *)

let seeds_arg =
  Arg.(value & opt int 3
       & info [ "seeds" ] ~docv:"K" ~doc:"Number of seeds to average over.")

let do_sweep cfg seeds =
  or_exit Sim_config.validate cfg;
  require_at_least ~flag:"seeds" ~min:1 seeds;
  let module Table = Rdt_metrics.Table in
  let module Stats = Rdt_metrics.Stats in
  let collectors =
    [
      ("no-gc", Sim_config.No_gc);
      ("simple:5", Sim_config.Simple { period = 5.0 });
      ("coordinated:5", Sim_config.Coordinated { period = 5.0 });
      ("lazy:5", Sim_config.Local_lazy { period = 5.0 });
      ("rdt-lgc", Sim_config.Local);
      ("oracle:2", Sim_config.Oracle_periodic { period = 2.0 });
    ]
  in
  let table =
    Table.create
      ~columns:
        [
          ("collector", Table.Left);
          ("mean retained", Table.Right);
          ("peak retained", Table.Right);
          ("collected", Table.Right);
          ("ctrl msgs", Table.Right);
        ]
  in
  List.iter
    (fun (name, gc) ->
      let mean = Stats.create ()
      and peak = Stats.create ()
      and collected = Stats.create ()
      and ctrl = Stats.create () in
      for k = 0 to seeds - 1 do
        let t = or_exit Runner.create { cfg with gc; seed = cfg.seed + k } in
        Runner.run t;
        let s = Runner.summary t in
        Stats.add mean s.Runner.mean_total_retained;
        Stats.add_int peak s.Runner.peak_retained_global;
        Stats.add_int collected s.Runner.eliminated_total;
        Stats.add_int ctrl s.Runner.control_messages
      done;
      Table.add_row table
        [
          name;
          Table.fmt_float (Stats.mean mean);
          Table.fmt_float (Stats.mean peak);
          Table.fmt_float ~decimals:0 (Stats.mean collected);
          Table.fmt_float ~decimals:0 (Stats.mean ctrl);
        ])
    collectors;
  Table.print table

let sweep_cmd =
  let doc =
    "Run the same workload under every garbage collector and compare \
     storage footprints (the --gc flag is ignored)."
  in
  Cmd.v (Cmd.info "sweep" ~doc) Term.(const do_sweep $ config_term $ seeds_arg)

(* --- store-stats -------------------------------------------------------- *)

let do_store_stats dir =
  let module Log_store = Rdt_store.Log_store in
  let module Table = Rdt_metrics.Table in
  (* only a pid's canonical directory counts: [int_of_string_opt] also
     reads "p+5", "p0x4" and "p00", which name no store *)
  let pid_dirs =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           let path = Filename.concat dir name in
           match int_of_string_opt (String.sub name 1 (String.length name - 1))
           with
           | Some pid
             when pid >= 0
                  && path = Log_store.pid_dir dir pid
                  && Sys.is_directory path ->
             Some (pid, path)
           | _ -> None)
    |> List.sort compare
  in
  if pid_dirs = [] then begin
    Format.eprintf "no p<pid> store directories under %s@." dir;
    exit 1
  end;
  (* a run keeps each store in the pid directory itself, a live cluster in
     the node's store subdirectory; a directory with neither gets no row *)
  let open_store pid path =
    let node_store = Rdt_live.Node.store_dir path in
    let store_dir = if Sys.file_exists node_store then node_store else path in
    let ls = Log_store.create ~pid ~dir:store_dir () in
    if (Log_store.stats ls).Log_store.segments = 0 then begin
      Log_store.close ls;
      Format.eprintf "%s holds no checkpoint store@." path;
      exit 1
    end;
    ls
  in
  let table =
    Table.create
      ~columns:
        [
          ("process", Table.Left);
          ("segments", Table.Right);
          ("live ckpts", Table.Right);
          ("live bytes", Table.Right);
          ("dead bytes", Table.Right);
          ("disk bytes", Table.Right);
          ("appended", Table.Right);
          ("compactions", Table.Right);
          ("reclaimed", Table.Right);
        ]
  in
  (* one cell per numeric column, so the total row is the column sums *)
  let cells (s : Log_store.stats) =
    [
      s.segments; s.live_records; s.live_bytes; s.dead_bytes; s.disk_bytes;
      s.appended_records; s.compactions; s.bytes_reclaimed;
    ]
  in
  let add_row name cells =
    Table.add_row table (name :: List.map string_of_int cells)
  in
  let rows =
    List.map
      (fun (pid, path) ->
        let ls = open_store pid path in
        let r = Log_store.recovery ls in
        if r.Log_store.records_dropped > 0 || r.Log_store.torn_bytes > 0 then
          Format.eprintf
            "p%d: scan dropped %d corrupt record(s), %d torn byte(s)@." pid
            r.Log_store.records_dropped r.Log_store.torn_bytes;
        let row = cells (Log_store.stats ls) in
        Log_store.close ls;
        add_row (Filename.basename path) row;
        row)
      pid_dirs
  in
  (match rows with
  | first :: (_ :: _ as rest) ->
    add_row "total" (List.fold_left (List.map2 ( + )) first rest)
  | _ -> ());
  Table.print table

let store_stats_cmd =
  let doc =
    "Inspect the durable checkpoint stores under DIR, as 'rdtgc run \
     --store-dir' (DIR/p<pid>) or 'rdtgc cluster-run --root' \
     (DIR/p<pid>/store) leaves them: per-process segment counts, live/dead \
     bytes and compaction work.  Exits 1 if a p<pid> directory holds no \
     store."
  in
  let dir_arg = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR") in
  Cmd.v (Cmd.info "store-stats" ~doc) Term.(const do_store_stats $ dir_arg)

(* --- figure4 ------------------------------------------------------------ *)

let do_figure4 () =
  let module Script = Rdt_scenarios.Script in
  let ints l = String.concat "," (List.map string_of_int l) in
  let show label s =
    Format.printf "%-42s" label;
    for pid = 0 to 2 do
      Format.printf "  p%d (%s)/(%s)" pid
        (ints (Array.to_list (Script.dv s pid)))
        (String.concat ","
           (Array.to_list
              (Array.map
                 (function None -> "*" | Some i -> string_of_int i)
                 (Script.uc s pid))))
    done;
    Format.printf "@."
  in
  Format.printf
    "Figure 4 replay (paper pids p1,p2,p3 = 0,1,2): DV/UC per process \
     ('*' = Null).@.@.";
  let s = Rdt_scenarios.Figures.figure4 ~on_step:show () in
  Format.printf "@.final retained checkpoints:@.";
  for pid = 0 to 2 do
    Format.printf "  p%d: {%s}@." pid (ints (Script.retained s pid))
  done;
  Format.printf
    "@.p1 still holds its s1 although it is obsolete (oracle: %b) —@.\
     p1 cannot know that p2 checkpointed past the s1 it heard about;@.\
     Theorem 5 proves no asynchronous collector can do better.@."
    (Rdt_gc.Oracle.is_obsolete (Script.ccp s)
       { Rdt_ccp.Ccp.pid = 1; index = 1 })

let figure4_cmd =
  let doc = "Replay the paper's Figure 4 reference execution of RDT-LGC." in
  Cmd.v (Cmd.info "figure4" ~doc) Term.(const do_figure4 $ const ())

(* --- protocols ----------------------------------------------------------- *)

let do_protocols () =
  List.iter
    (fun p ->
      Printf.printf "%-6s %s\n" p.Protocol.id
        (if p.Protocol.rdt then "guarantees RDT"
         else if p.Protocol.id = "bcs" then
           "Z-cycle-free only (no useless checkpoints, but not RDT)"
         else "no guarantee (domino effect possible)"))
    Protocol.all

let protocols_cmd =
  let doc = "List the available communication-induced checkpointing protocols." in
  Cmd.v (Cmd.info "protocols" ~doc) Term.(const do_protocols $ const ())

(* --- fuzz / live-fuzz: the shared campaign options ------------------------ *)

module Fuzz = Rdt_verify.Fuzz

type campaign_opts = {
  seed : int;
  runs : int;
  max_procs : int;
  shrink : bool;
  corpus : string option;
  quiet : bool;
}

let campaign_term ~runs ~max_procs ~corpus_doc =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Root seed; every run derives a sub-seed from it that \
                 regenerates everything the run uses.")
  in
  let runs =
    Arg.(value & opt int runs & info [ "runs" ] ~docv:"N"
           ~doc:"Number of generated scenarios.")
  in
  let max_procs =
    Arg.(value & opt int max_procs & info [ "max-procs" ] ~docv:"N"
           ~doc:"Upper bound on the process count of generated scenarios.")
  in
  let shrink =
    Arg.(value & opt bool true & info [ "shrink" ] ~docv:"BOOL"
           ~doc:"Delta-debug failing scenarios to minimal reproducers.")
  in
  let corpus =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:corpus_doc)
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-run output.")
  in
  Term.(
    const (fun seed runs max_procs shrink corpus quiet ->
        { seed; runs; max_procs; shrink; corpus; quiet })
    $ seed $ runs $ max_procs $ shrink $ corpus $ quiet)

let campaign_log o = if o.quiet then fun _ -> () else print_endline

(* [--runs 0] still replays the corpus. *)
let run_campaign o arm =
  require_at_least ~flag:"runs" ~min:0 o.runs;
  Fuzz.campaign ~shrink:o.shrink ?corpus:o.corpus ~log:(campaign_log o)
    ~seed:o.seed ~runs:o.runs ~max_procs:o.max_procs arm

(* Exit 1 on a failing campaign — or, under a mutation self-check
   ([mutant] = how the injected bug is named when it escapes / when it
   is caught), on a passing one. *)
let finish_campaign ?mutant report =
  let passed = Fuzz.passed report in
  match mutant with
  | None -> if not passed then exit 1
  | Some (escaped, caught) ->
    if passed then begin
      print_endline
        (Printf.sprintf "self-check FAILED: %s escaped every oracle" escaped);
      exit 1
    end
    else print_endline (Printf.sprintf "self-check ok: %s caught" caught)

let scratch_root ~prefix = function
  | Some r -> (r, false)
  | None ->
    ( Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d" prefix (Unix.getpid ())),
      true )

(* --- fuzz ---------------------------------------------------------------- *)

let do_fuzz o mutate_lgc replay =
  match replay with
  | Some file -> begin
    (* replay one saved scenario and report its verdict *)
    match Rdt_verify.Scenario.load file with
    | Error e ->
      Printf.eprintf "cannot load %s: %s\n" file e;
      exit 1
    | Ok sc ->
      let r = Rdt_verify.Harness.run ~mutate_lgc sc in
      Format.printf "%a@." Rdt_verify.Scenario.pp sc;
      (match r.Rdt_verify.Harness.violations with
      | [] -> print_endline "ok"
      | vs ->
        List.iter
          (fun v -> Format.printf "%a@." Rdt_verify.Oracles.pp_violation v)
          vs;
        exit 1)
  end
  | None ->
    let mutant =
      if mutate_lgc then Some ("over-collecting mutant", "mutant") else None
    in
    finish_campaign ?mutant
      (run_campaign o (Fuzz.harness ~mutate_lgc ()))

let fuzz_cmd =
  let doc =
    "Differential simulation fuzzing: generate random scenarios from a seed, \
     run them through the protocols, RDT-LGC and the durable store, and \
     check every step against the paper's theorem oracles.  Failures are \
     delta-debugged to minimal reproducers."
  in
  let campaign =
    campaign_term ~runs:100 ~max_procs:6
      ~corpus_doc:
        "Replay saved failing scenarios ($(b,*.scn)) first, and save new \
         failures (original and shrunk) here."
  in
  let mutate_arg =
    Arg.(value & flag & info [ "mutate-lgc" ]
           ~doc:"Self-check: enable the over-collecting mutation in every \
                 collector; exit 0 iff the campaign catches it.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay one saved scenario file instead of fuzzing; exit 0 \
                 iff it passes the oracles.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const do_fuzz $ campaign $ mutate_arg $ replay_arg)

(* --- cluster-run / node --------------------------------------------------- *)

let nemesis_conv =
  let parse s =
    match Rdt_transport.Nemesis.of_string s with
    | Ok cfg -> Ok cfg
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    ( parse,
      fun ppf cfg ->
        Format.pp_print_string ppf (Rdt_transport.Nemesis.to_string cfg) )

let nemesis_arg =
  Arg.(value & opt (some nemesis_conv) None
       & info [ "nemesis" ] ~docv:"SPEC"
           ~doc:"Fault-injection schedule (the $(b,nms1 ...) form written \
                 by live-fuzz, or $(b,nms1 seed=0x2a part=-) style by \
                 hand): every endpoint drops, delays, duplicates and \
                 corrupts frames deterministically from the spec.")

let do_cluster_run scenario_file root backend seed timeout nemesis keep quiet =
  let log = if quiet then fun _ -> () else print_endline in
  match Rdt_verify.Scenario.load scenario_file with
  | Error e ->
    Printf.eprintf "cannot load %s: %s\n" scenario_file e;
    exit 1
  | Ok sc ->
    let root, temp_root = scratch_root ~prefix:"rdtgc-cluster" root in
    Format.printf "%a@." Rdt_verify.Scenario.pp sc;
    log (Printf.sprintf "cluster root: %s" root);
    let result =
      match backend with
      | `Sim ->
        Rdt_live.Sim_cluster.run ~scenario:sc ~root ~seed ?nemesis ~log ()
      | `Exec ->
        Rdt_live.Cluster.run ~scenario:sc ~root
          ~backend:(Rdt_live.Cluster.Exec Sys.executable_name)
          ~timeout ?nemesis ~log ()
    in
    let cleanup ok =
      if temp_root && ok && not keep then Rdt_verify.Harness.rm_rf root
      else Printf.printf "stores and logs kept under %s\n" root
    in
    (match result with
    | Error msg ->
      Printf.eprintf "cluster run failed: %s\n" msg;
      cleanup false;
      exit 1
    | Ok record ->
      log "cluster run complete; replaying against the simulator";
      let check = Rdt_live.Checker.check ~record ~root () in
      (match check.Rdt_live.Checker.violations with
      | [] ->
        print_endline "ok: live run matches the simulator replay";
        cleanup true
      | vs ->
        List.iter
          (fun v -> Format.printf "%a@." Rdt_verify.Oracles.pp_violation v)
          vs;
        cleanup false;
        exit 1))

let cluster_run_cmd =
  let doc =
    "Run a scenario file against a live local cluster — one OS process per \
     scenario pid on loopback TCP, each with its own durable store — then \
     replay it through the simulator and hold the live run against the \
     oracles: per-op protocol state, transcript, recovery reports, and \
     recovered store contents (black-box differential checking).  Crash \
     ops SIGKILL the victim process and respawn it from its store."
  in
  let scenario_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO"
           ~doc:"Scenario file ($(b,.scn), the fuzzer's corpus format).")
  in
  let root_arg =
    Arg.(value & opt (some string) None & info [ "root" ] ~docv:"DIR"
           ~doc:"Cluster root: per-node stores and logs live in \
                 $(docv)/p<pid> (wiped first). Default: a fresh directory \
                 under the system temp dir, removed when the run passes.")
  in
  let backend_arg =
    Arg.(value & opt (enum [ ("exec", `Exec); ("sim", `Sim) ]) `Exec
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"$(b,exec) spawns this executable per node (default); \
                   $(b,sim) drives the same node logic deterministically \
                   inside the simulator.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Simulator seed (only the $(b,sim) backend uses it).")
  in
  let timeout_arg =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-response coordinator timeout.")
  in
  let keep_arg =
    Arg.(value & flag & info [ "keep" ]
           ~doc:"Keep the cluster root even when the run passes.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-op output.")
  in
  Cmd.v (Cmd.info "cluster-run" ~doc)
    Term.(
      const do_cluster_run $ scenario_arg $ root_arg $ backend_arg $ seed_arg
      $ timeout_arg $ nemesis_arg $ keep_arg $ quiet_arg)

let do_node me dir coord_port nemesis =
  Rdt_live.Cluster.node_main ~me ~dir ~coord_port ?nemesis ()

let node_cmd =
  let doc =
    "Run one cluster node process (spawned by $(b,cluster-run); not \
     intended for direct use)."
  in
  let me_arg =
    Arg.(required & opt (some int) None & info [ "me" ] ~docv:"PID" ~doc:"Node id.")
  in
  let dir_arg =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Node directory (durable store under $(docv)/store).")
  in
  let coord_port_arg =
    Arg.(required & opt (some int) None & info [ "coord-port" ] ~docv:"PORT"
           ~doc:"Coordinator's loopback TCP port.")
  in
  Cmd.v (Cmd.info "node" ~doc)
    Term.(const do_node $ me_arg $ dir_arg $ coord_port_arg $ nemesis_arg)

(* --- live-fuzz ------------------------------------------------------------ *)

let do_live_fuzz o backend root mutate timeout =
  let backend =
    match backend with
    | `Sim -> Rdt_live.Live_fuzz.Sim
    | `Exec ->
      Rdt_live.Live_fuzz.Live (Rdt_live.Cluster.Exec Sys.executable_name)
  in
  let root, temp_root = scratch_root ~prefix:"rdtgc-live-fuzz" root in
  let report =
    run_campaign o
      (Rdt_live.Live_fuzz.arm ~timeout ~mutate_deliver:mutate ~backend ~root
         ())
  in
  if temp_root && (Fuzz.passed report || mutate) then
    Rdt_verify.Harness.rm_rf root
  else campaign_log o (Printf.sprintf "campaign scratch kept under %s" root);
  let mutant =
    if mutate then Some ("duplicated delivery", "duplicated delivery")
    else None
  in
  finish_campaign ?mutant report

let live_fuzz_cmd =
  let doc =
    "Jepsen-style fuzzing of the live runtime: generate random scenarios \
     and random nemesis fault schedules from a seed, run them against a \
     whole cluster (deterministic simulator backend or real TCP processes \
     on loopback), and hold every run against the black-box checker \
     oracles.  Failures are delta-debugged and saved as \
     scenario + nemesis seed pairs, so any failure replays from its seed."
  in
  let campaign =
    campaign_term ~runs:50 ~max_procs:4
      ~corpus_doc:
        "Replay committed $(b,*.scn) scenarios first (each under its \
         sibling $(b,.nms) schedule), and save new failures (scenario, \
         nemesis spec, shrunk scenario) here."
  in
  let backend_arg =
    Arg.(value & opt (enum [ ("sim", `Sim); ("exec", `Exec) ]) `Sim
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"$(b,sim) runs clusters in-process on the deterministic \
                   simulator (default); $(b,exec) spawns this executable \
                   per node over TCP.")
  in
  let root_arg =
    Arg.(value & opt (some string) None & info [ "root" ] ~docv:"DIR"
           ~doc:"Campaign scratch directory (wiped). Default: a fresh \
                 directory under the system temp dir, removed when the \
                 campaign passes.")
  in
  let mutate_arg =
    Arg.(value & flag & info [ "mutate-deliver" ]
           ~doc:"Self-check: every node delivers each message twice; exit \
                 0 iff the campaign catches it.")
  in
  let timeout_arg =
    Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-response coordinator timeout of live-backend runs.")
  in
  Cmd.v (Cmd.info "live-fuzz" ~doc)
    Term.(
      const do_live_fuzz $ campaign $ backend_arg $ root_arg $ mutate_arg
      $ timeout_arg)

(* --- lint ---------------------------------------------------------------- *)

let do_lint root dirs =
  let summary = Rdt_lint.Lint.scan ~root ~dirs () in
  Rdt_lint.Report.text Format.std_formatter summary;
  exit (if Rdt_lint.Report.ok summary then 0 else 1)

let lint_cmd =
  let doc =
    "Project-invariant static analysis over the typed AST (.cmt files): \
     determinism (no wall clocks, self-seeded RNGs, stray Domain.spawn or \
     hash-order iteration), zero-allocation hot paths \
     ($(b,[@@@lint.zero_alloc_hot])), unsafe-op hygiene \
     ($(b,[@@lint.bounds_checked]) + file allowlist), polymorphic \
     compare at non-scalar types, and lib/ exports that no other unit, or \
     only test/, references.  Suppress per site with \
     $(b,[@lint.allow \"rule-id\" \"justification\"]), or keep an export \
     for the tests with $(b,[@@lint.reference \"justification\"]).  Exit 1 \
     iff there are error-severity findings."
  in
  let root_arg =
    Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR"
           ~doc:"Project root; .cmt files are searched under \
                 $(docv)/_build/default, or $(docv) itself when already \
                 inside a build tree.")
  in
  let dir_arg =
    Arg.(value
         & opt_all string [ "lib"; "bin"; "bench"; "examples"; "test" ]
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Directory (relative to the build root) to scan; \
                   repeatable.  The per-unit rules apply under lib/; every \
                   scanned unit counts as a reference for the dead-export \
                   rules.  Default: lib, bin, bench, examples and test.")
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const do_lint $ root_arg $ dir_arg)

let () =
  let doc =
    "RDT-LGC: optimal asynchronous garbage collection for RDT checkpointing \
     protocols (Schmidt, Garcia, Pedone & Buzato, ICDCS 2005)"
  in
  let info = Cmd.info "rdtgc" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            analyze_cmd;
            inspect_cmd;
            sweep_cmd;
            store_stats_cmd;
            figure4_cmd;
            protocols_cmd;
            fuzz_cmd;
            live_fuzz_cmd;
            cluster_run_cmd;
            node_cmd;
            lint_cmd;
          ]))
