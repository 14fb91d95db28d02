(** Black-box differential checking of a live cluster run.

    Replays the run's scenario through {!Rdt_verify.Harness} — the full
    oracle battery fires after every op — and compares the live run's
    observations against the replay: per-op protocol state (DV, UC view,
    retained indices, application counter) via the harness's [observe]
    hook, the mirrored transcript against the replayed trace, recovery
    reports, and each node's durable store directory (recovered with
    {!Rdt_store.Log_store}) against the replay's final retained set.

    The state contract deliberately excludes process-lifetime
    bookkeeping (basic/forced checkpoint counts, store peak statistics):
    a respawn resets those on the live side while the simulator arm
    keeps counting. *)

type result = {
  violations : Rdt_verify.Oracles.violation list;
      (** empty = the live run checks out; oracles "live-state",
          "live-trace", "live-report", "live-durability" plus anything
          the replay's own battery raises *)
}

val check :
  record:Coordinator.run_record ->
  root:string ->
  ?scratch_dir:string ->
  unit ->
  result
(** [root] is the cluster root whose [p<pid>/store] directories the run
    left behind; [scratch_dir] is forwarded to {!Rdt_verify.Harness.run}
    for the replay's own stores. *)
