let () =
  Alcotest.run "rdtgc"
    [
      ("prng", Test_prng.suite);
      ("event-queue", Test_event_queue.suite);
      ("engine", Test_engine.suite);
      ("causality", Test_causality.suite);
      ("trace-ccp", Test_trace_ccp.suite);
      ("zigzag", Test_zigzag.suite);
      ("rdt-check", Test_rdt_check.suite);
      ("consistency", Test_consistency.suite);
      ("storage", Test_storage.suite);
      ("store", Test_store.suite);
      ("dv-archive", Test_dv_archive.suite);
      ("protocols", Test_protocols.suite);
      ("rdt-lgc", Test_rdt_lgc.suite);
      ("merged-fdas", Test_merged_fdas.suite);
      ("global-gc", Test_global_gc.suite);
      ("recovery", Test_recovery.suite);
      ("process-stack", Test_process_stack.suite);
      ("tracking", Test_tracking.suite);
      ("theorems", Test_theorems.suite);
      ("runner", Test_runner.suite);
      ("workload", Test_workload.suite);
      ("metrics", Test_metrics.suite);
      ("ccp-incremental", Test_ccp_incremental.suite);
      ("engine-alloc", Test_engine_alloc.suite);
      ("message-alloc", Test_message_alloc.suite);
      ("perf-diff", Test_perf_diff.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("fuzz", Test_fuzz.suite);
      ("lint", Test_lint.suite);
      ("wire", Test_wire.suite);
      ("nemesis", Test_nemesis.suite);
      ("live", Test_live.suite);
      ("cli", Test_cli.suite);
    ]
