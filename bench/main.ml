(* Benchmark harness: regenerates every figure of the paper (F1-F5) and
   runs the practical evaluation it proposes as future work (E1-E3, E5,
   E6), plus Bechamel micro-benchmarks for the complexity claims (E4).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- figures      # only F1-F5
     dune exec bench/main.exe -- eval         # only E1-E3, E5-E8
     dune exec bench/main.exe -- micro        # only the Bechamel benches
     dune exec bench/main.exe -- smoke        # fast micro subset
     dune exec bench/main.exe -- perf-diff BASELINE.json CURRENT.json
                                              # non-fatal regression report

   Every simulation is a pure function of its seed, so the figure and
   evaluation reports are byte-identical from run to run.  [micro] and
   [smoke] also write machine-readable BENCH_micro.json. *)

let usage () =
  prerr_endline
    "usage: main.exe [all|figures|eval|micro|smoke]\n\
    \       main.exe perf-diff BASELINE.json CURRENT.json";
  exit 2

let () =
  (* perf-diff is a plain file-to-file comparison, not an experiment *)
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "perf-diff" then begin
    if Array.length Sys.argv <> 4 then usage ();
    Perf_diff.run ~baseline:Sys.argv.(2) ~current:Sys.argv.(3);
    exit 0
  end;
  let what =
    match Sys.argv with
    | [| _ |] -> "all"
    | [| _; ("all" | "figures" | "eval" | "micro" | "smoke" as w) |] -> w
    | _ -> usage ()
  in
  Printf.printf
    "RDT-LGC benchmark harness — reproduction of Schmidt, Garcia, Pedone &\n\
     Buzato, \"Optimal Asynchronous Garbage Collection for RDT\n\
     Checkpointing Protocols\" (ICDCS 2005)\n";
  let ran_figures =
    if what = "all" || what = "figures" then Some (Exp_figures.all ()) else None
  in
  let ran_eval =
    if what = "all" || what = "eval" then Some (Exp_eval.all ()) else None
  in
  let ran_micro =
    if what = "all" || what = "micro" then Some (Micro.all ())
    else if what = "smoke" then Some (Micro.smoke ())
    else None
  in
  let verdict label = function
    | None -> ()
    | Some true -> Printf.printf "%s: all checks passed\n" label
    | Some false -> Printf.printf "%s: SOME CHECKS FAILED\n" label
  in
  print_newline ();
  verdict "figure experiments (F1-F5)" ran_figures;
  verdict "evaluation experiments (E1-E3, E5-E8)" ran_eval;
  verdict "micro-benchmarks (E4)" ran_micro;
  let failed =
    List.exists (function Some false -> true | _ -> false)
      [ ran_figures; ran_eval; ran_micro ]
  in
  if failed then exit 1
