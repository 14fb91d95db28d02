(** Configuration of a full checkpointing simulation. *)

type gc_policy =
  | No_gc  (** keep everything (lower baseline) *)
  | Local  (** RDT-LGC — the paper's asynchronous collector *)
  | Local_lazy of { period : float }
      (** ablation: the same causal knowledge as RDT-LGC (Theorem 2 from
          the process's own DV), but recomputed from scratch every
          [period] instead of maintained incrementally on every event.
          Still asynchronous (no control messages); quantifies what the
          paper's "as soon as they satisfy the condition" immediacy and
          the UC/CCB bookkeeping buy *)
  | Coordinated of { period : float }
      (** Wang-style coordinated collection: every [period], a coordinator
          gathers all processes' state over reliable control messages,
          evaluates Theorem 1 globally, and disseminates collect orders *)
  | Simple of { period : float }
      (** the survey's simple baseline: collect everything strictly below
          the recovery line for the failure of all processes (also over
          control-message rounds) *)
  | Oracle_periodic of { period : float }
      (** idealized instant global knowledge, no messages: Theorem 1
          applied every [period] with zero latency (upper baseline) *)

val gc_policy_name : gc_policy -> string

type fault = {
  crash_at : float;  (** virtual time of the crash *)
  pid : int;
  repair_after : float;  (** downtime before the process recovers *)
}
(** Fault windows must not overlap the same process crashing twice;
    concurrent crashes of different processes are supported. *)

type store_backend =
  | Memory  (** the historical in-memory stable-storage model *)
  | Durable of { dir : string; config : Rdt_store.Log_store.config }
      (** every process [p] persists its checkpoints in a log-structured
          store under [dir/p<pid>]; [dir] must be fresh (recovery of an
          existing directory goes through {!Rdt_store.Log_store} directly) *)

type t = {
  n : int;
  seed : int;
  duration : float;
  net : Rdt_sim.Network.config;
  workload : Rdt_workload.Workload.config;
  protocol : Rdt_protocols.Protocol.t;
  gc : gc_policy;
  faults : fault list;
  knowledge : Rdt_recovery.Session.knowledge;
      (** recovery-session mode: [`Global] disseminates the LI vector,
          [`Causal] leaves each process to its own dependency vector *)
  sample_interval : float;  (** metrics sampling period *)
  ckpt_bytes : int;  (** synthetic size of one checkpoint *)
  store : store_backend;  (** where stable storage actually lives *)
  shards : int;
      (** must be [1]: the engine is sequential.  A leftover of the
          retired sharded engine, kept only because the benchmark harness
          still sets it; the field goes in the next change to the
          benchmark. *)
}

val default : t
(** 4 processes, FDAS + RDT-LGC, uniform workload, no faults, seed 1,
    duration 100. *)

val validate : t -> unit
(** @raise Invalid_argument on out-of-range parameters: a duration,
    sample interval, GC period or fault time that is not finite and
    positive, or a negative [ckpt_bytes]; a collector or crash faults
    with a non-RDT protocol.  {!Rdt_workload.Workload.create}
    and {!Rdt_sim.Network.create} check [workload] and [net]. *)
