(** Simulation runner: wires the engine, workload, checkpointing
    middleware, garbage collector, fault injection and recovery manager
    into one executable scenario, and collects the metrics the
    experiments report.

    Typical use:
    {[
      let cfg = { Sim_config.default with n = 8; seed = 42 } in
      let t = Runner.create cfg in
      Runner.run t;
      let s = Runner.summary t in
      Format.printf "%a@." Runner.pp_summary s
    ]}

    The runner exposes its internals (middlewares, collectors, trace,
    engine) so tests can drive executions step by step and audit
    invariants against the trace-based oracle. *)

type t

val create : ?record:bool -> Sim_config.t -> t
(** Builds the whole scenario (validated); nothing has executed yet
    beyond each process storing its initial checkpoint.

    The execution trace is kept only with [~record:true], for callers
    that read it ({!ccp}, or {!trace} through {!Rdt_ccp.Trace.iter},
    [save] or [to_string]).  By default the trace is muted
    ({!Rdt_ccp.Trace.set_recording}) before the first checkpoint, so a
    run holds only what the collector keeps plus its metrics; the muted
    trace still mints message ids and feeds {!Rdt_ccp.Trace.on_event}
    subscribers, and every metric and summary is the same either way. *)

val run : t -> unit
(** Execute until the configured duration. *)

val step : t -> bool
[@@lint.reference "step seam: tests check invariants between single events"]
(** Execute a single engine event; [false] when nothing is left. *)

val set_on_sample : t -> (t -> unit) -> unit
[@@lint.reference "sampling seam: tests observe the run at every sample"]
(** Callback invoked at every metrics sample (tests hook invariant audits
    here). *)

(* Internals *)

val config : t -> Sim_config.t
val engine : t -> Sim_msg.t Rdt_sim.Engine.t
val now : t -> float
val trace : t -> Rdt_ccp.Trace.t
(** The run's trace, recorded or muted.  The readers of a muted one
    ({!Rdt_ccp.Trace.iter} and those built on it) raise
    [Invalid_argument]; its {!Rdt_ccp.Trace.on_event} subscribers still
    see every event. *)

val stack : t -> int -> Rdt_recovery.Process_stack.t
(** One process's store → middleware → collector stack. *)

val middleware : t -> int -> Rdt_protocols.Middleware.t
val collector : t -> int -> Rdt_gc.Rdt_lgc.t option
val ccp : t -> Rdt_ccp.Ccp.t
(** Ground-truth CCP of the execution so far.  Maintained incrementally:
    the first call attaches a {!Rdt_ccp.Ccp.Incremental} view to the
    trace, after which each query folds only the events recorded since
    the previous one (a rollback triggers one full rebuild).  The result
    is a live view — do not retain it across further simulation steps;
    query again instead.
    @raise Invalid_argument if the run was not created with
    [~record:true]. *)

(* Metrics *)

val retained_series : t -> Rdt_metrics.Series.t array
val total_retained_series : t -> Rdt_metrics.Series.t
val optimal_retained_series : t -> Rdt_metrics.Series.t
(** Total retained under idealized Theorem-1 collection, sampled at the
    same instants (only recorded for RDT protocols). *)

val recoveries : t -> Rdt_recovery.Session.report list

(* Durable store *)

val durable : t -> bool
(** [true] iff the scenario runs the log-structured on-disk backend. *)

val log_store : t -> int -> Rdt_store.Log_store.t option
(** Process [pid]'s on-disk store ([None] under the memory backend). *)

val sync_stores : t -> unit
(** Force every pending store write to disk (fsync). *)

val close_stores : t -> unit
(** Flush, sync and close every on-disk store.  Call once the run (and
    any post-run inspection through {!log_store}) is finished. *)

type summary = {
  n : int;
  duration : float;
  protocol : string;
  gc : string;
  basic_checkpoints : int;
  forced_checkpoints : int;
  stored_total : int;  (** checkpoints ever written, all processes *)
  eliminated_total : int;
  final_retained : int array;
  peak_retained : int array;  (** per-process peak simultaneous *)
  peak_retained_global : int;  (** peak of the sampled global total *)
  mean_total_retained : float;
  mean_optimal_retained : float;  (** nan for non-RDT protocols *)
  app_messages : int;
  piggyback_words : int;
      (** control information carried by the application messages
          themselves ([n+1] words each: the DV plus the protocol index) —
          the asynchronous approach's entire communication cost *)
  control_messages : int;  (** GC control messages (coordinated modes) *)
  gc_rounds : int;
  recovery_sessions : int;
  checkpoints_rolled_back : int;
  store_segments : int;  (** on-disk segment files, all processes (0 = memory backend) *)
  store_live_bytes : int;
  store_dead_bytes : int;
  store_compactions : int;
}

val summary : t -> summary
val pp_summary : Format.formatter -> summary -> unit
