(** Per-process checkpointing middleware.

    Owns the process's dependency vector, stable store and protocol
    instance; records everything in the shared {!Rdt_ccp.Trace.t}; and
    exposes the two-sided message API the simulation driver uses
    ({!prepare_send} / {!receive}).  Garbage collectors attach through
    {!hooks}, which are invoked at exactly the points where the paper's
    RDT-LGC runs (Algorithm 2): when a message brings new causal
    information, and when a checkpoint has just been stored (before the
    local dependency-vector entry is incremented).

    The paper's remark on merged implementations (Section 4.5) is honored:
    a forced checkpoint triggered by a receive is stored *before* the
    receive is processed and before any garbage collection related to the
    receive runs. *)

type hooks = {
  on_new_dependency : int -> unit;
      (** [on_new_dependency j]: the receive being processed increased
          [DV.(j)] (called after the entry was updated) *)
  on_checkpoint_stored : int -> unit;
      (** [on_checkpoint_stored index]: checkpoint [s^index] was written to
          stable storage; the local DV entry has not been incremented yet *)
  on_rollback : li:int array -> unit;
      (** a rollback completed: storage truncated, DV restored from the
          rollback target and incremented.  [li] is the last-interval
          vector [LI] (global knowledge) or the process's own DV (see
          paper, Algorithm 3 and its DV variant) *)
}

type message = {
  msg_id : int;
  src : int;
  control : Control.t;
}
(** What travels on the wire (the synthetic application payload carries no
    information of its own). *)

type kind = Basic | Forced

type t

val create :
  n:int ->
  me:int ->
  protocol:Protocol.t ->
  trace:Rdt_ccp.Trace.t ->
  ?ckpt_bytes:int ->
  ?store:Rdt_storage.Stable_store.t ->
  unit ->
  t
(** Creates the middleware and immediately stores the initial checkpoint
    [s^0] in [store] (default: a fresh in-memory store; a supplied one
    must be empty).  Build it through [Rdt_recovery.Process_stack], which
    attaches the durability backend and the collector in the right
    order. *)

val restore :
  n:int ->
  me:int ->
  protocol:Protocol.t ->
  trace:Rdt_ccp.Trace.t ->
  ?ckpt_bytes:int ->
  store:Rdt_storage.Stable_store.t ->
  unit ->
  t
(** Rebuild the middleware of a process that crashed and lost its volatile
    state: [store] is the restored stable store (built by
    [Rdt_recovery.Process_stack.restore]).  [trace] need not hold the
    process's history: the live runtime passes a muted one.  A recording
    [trace] must hold the checkpoint the recovery-session rollback cuts
    back to.  The DV and application state are recreated from the last
    surviving checkpoint, as in Algorithm 3; no new checkpoint is stored
    and no DV archive is built (a first {!archive} call seeds one from
    [store]).  The caller must drive a
    recovery-session rollback before resuming normal operation — until
    then the state is provisional, and the protocol instance restarts
    interval-fresh (valid for the RDT protocols, whose per-interval flags
    reset at each checkpoint; not for monotone-index protocols like BCS).
    @raise Invalid_argument if [store] is empty. *)

val set_hooks : t -> hooks -> unit

val dv : t -> Rdt_causality.Dependency_vector.t
(** The live dependency vector — [DV(v_i)].  Do not mutate. *)

val store : t -> Rdt_storage.Stable_store.t

val archive : t -> Rdt_storage.Dv_archive.t
(** The archive of this process's checkpoint dependency vectors, which
    feeds the decentralized tracking computations of
    [Rdt_recovery.Tracking].  A middleware keeps none until this is first
    called, so a run that never asks pays nothing for it.  The first call
    seeds one from the checkpoints the store retains (the vectors of
    those already collected are gone;
    {!Rdt_storage.Dv_archive.find} answers [None] for them);
    every later call returns the same archive, which records each
    checkpoint taken from then on (it survives garbage collection) and is
    rewound by {!rollback}.  Call it right after creating the process to
    archive its whole history. *)

val basic_checkpoint : t -> now:float -> unit
(** Take a basic (autonomous) checkpoint. *)

val prepare_send : ?into:int array -> t -> dst:int -> now:float -> message
(** Build an application message: runs the protocol's send rule and
    records the send in the trace.  For checkpoint-after-send protocols
    the forced checkpoint is stored right after the send event (the
    message itself carries the pre-checkpoint dependency vector).  The
    piggybacked vector is the one message-boundary copy, made into [into]
    (an [n]-word buffer the message then owns) when given, else into a
    fresh array ({!Control.make}). *)

val receive : t -> message -> now:float -> unit
(** Process a delivered message: consult the protocol (taking a forced
    checkpoint first if required), record the receive, merge the
    dependency vector and fire GC hooks for each new dependency.  The
    message is borrowed for the duration of the call only: neither the
    middleware, nor its protocol, nor its hooks keep a reference to
    [message.control] or its [dv] after [receive] returns, so the caller
    may recycle the buffer for a later {!prepare_send} ([~into]). *)

val rollback : t -> to_index:int -> li:int array option -> unit
(** Roll back to stable checkpoint [s^to_index]: eliminate later
    checkpoints from storage, restore DV from the target's stored vector
    and increment the local entry (paper, Algorithm 3 lines 4-6), truncate
    the trace, then fire [on_rollback] with [li] (or with the restored DV
    when no global information is available). *)

val app_state : t -> int
(** The process's current (volatile) application state — a deterministic
    digest of its communication history.  Checkpoints capture it; a
    rollback restores the captured value, so tests and demos can observe
    state restoration directly. *)

val basic_count : t -> int
val forced_count : t -> int
