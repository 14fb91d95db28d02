(** The cluster-side scenario driver.

    Plays a normalized {!Rdt_verify.Scenario.t} against live nodes as a
    serialized workload, mirroring every node-reported trace event into a
    coordinator-side transcript.  A [Crash] op kills the faulty processes
    for real (through [ctl]), flushes the survivors into the next epoch,
    respawns the victims from their durable stores, and runs the whole
    recovery session with {!Rdt_recovery.Session.run} — the same code the
    in-memory session runs — over handles that send [C_snapshot],
    [C_rollback] and [C_release] to the nodes.

    The coordinator's virtual clock advances by
    {!Rdt_scenarios.Script.advances_clock} (one unit per op, none per
    drop) and is carried inside every command, so live checkpoint
    [taken_at] stamps equal the simulator replay's. *)

type ctl = {
  kill : int -> unit;  (** hard-kill a node (volatile state is lost) *)
  respawn : int -> unit;  (** start it again over the same directory *)
}

type observation = {
  obs_op : int;  (** scenario op index *)
  obs_states : (int * Rdt_transport.Wire.state) list;
      (** per-pid protocol state reported right after the op *)
}

type run_record = {
  rr_scenario : Rdt_verify.Scenario.t;  (** the normalized scenario run *)
  rr_observations : observation list;  (** in op order *)
  rr_trace : string;  (** mirrored transcript, {!Rdt_ccp.Trace} text *)
  rr_reports : Rdt_recovery.Session.report list;
      (** one per crash op, as {!Rdt_recovery.Session.run} returned it *)
}

val run :
  transport:Rdt_transport.Transport.t ->
  ctl:ctl ->
  scenario:Rdt_verify.Scenario.t ->
  ?timeout:float ->
  ?log:(string -> unit) ->
  unit ->
  (run_record, string) result
(** Drive the whole scenario; nodes must have been spawned (their
    [Hello]s may already be buffered in the transport's mailbox).
    [timeout] (default 60s) bounds each wait for a node response.
    Returns [Error] on node failure, unexpected death, or timeout —
    callers collect logs and stores either way. *)
