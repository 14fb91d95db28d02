(** Recorded execution of a checkpointed distributed computation.

    The checkpointing middleware appends events here as the simulation
    runs; {!Ccp.of_trace} later turns the trace into a checkpoint and
    communication pattern for analysis.  Events carry a global sequence
    number: since a receive is always sequenced after its send, the
    sequence order is a linearization consistent with causality, which
    the analyzers exploit.  Sequence numbers are assigned at record time,
    or — in sharded simulations, where processes append concurrently —
    deferred and assigned in canonical engine order at {!finalize} (see
    {!set_order_source}).

    Rollback support: {!truncate_to_checkpoint} rewinds one process to just
    after a stable checkpoint, erasing the undone events.  Sends erased
    this way make the message disappear from the computation (equivalent to
    a loss, which the model allows); a surviving receive of an erased send
    would mean the rollback was inconsistent, and {!Ccp.of_trace} treats it
    as an error. *)

type kind =
  | Checkpoint of { index : int }
      (** process stored stable checkpoint [s^index] *)
  | Send of { msg_id : int; dst : int }
  | Receive of { msg_id : int; src : int }

type event = { mutable seq : int; pid : int; kind : kind }
(** [seq] is owned by the trace: it is assigned at record time, or — when
    an order source is installed ({!set_order_source}) — at {!finalize}.
    Clients must treat it as read-only. *)

type t

val create : n:int -> t
(** Empty trace for [n] processes.  Initial checkpoints are not implicit:
    record [Checkpoint {index = 0}] for each process (the middleware and
    the builder helpers below do). *)

val n : t -> int

val set_recording : t -> bool -> unit
(** Disable (or re-enable) event recording.  With recording off the
    [record_*] functions are no-ops (message ids are still allocated);
    used by micro-benchmarks that drive the middleware in a hot loop and
    must not accumulate an unbounded log.  A trace that was paused is no
    longer a faithful basis for {!Ccp.of_trace}. *)

val on_event : t -> (event -> unit) -> unit
(** Subscribe to appends: the callback runs after each event is recorded
    (so in global sequence order — the same linearization {!all_events}
    returns).  {!Ccp.Incremental} subscribes here to keep an analysis
    graph up to date in O(new events).  Callbacks do not fire while
    recording is off. *)

val on_truncate : t -> (pid:int -> unit) -> unit
(** Subscribe to rollbacks: the callback runs after
    {!truncate_to_checkpoint} erased a suffix of [pid]'s log.  Incremental
    consumers treat this as a cache invalidation (truncation can retract
    events a subscriber already folded in). *)

val set_order_source : t -> (Rdt_sim.Stamp.t -> unit) -> unit
(** Route appends through deferred canonical ordering: each record is
    buffered per process, stamped with the key the source writes into a
    trace-owned per-pid cell (the engine's [read_stamp]), and sequenced
    lazily by
    {!finalize} — sorted by [(time, u, v, k, pid)] where [k] ranks
    multiple records made under one key by the same process.  Installed
    by the runner for sharded simulations, where processes append from
    multiple domains and arrival order is not the canonical order.  The
    cell-writing shape keeps the per-record stamp allocation-free (a
    tuple per record was part of the multi-shard allocation storm).  Must
    be set before the first record. *)

val finalize : t -> unit
(** Sequence every buffered record and fire the {!on_event} callbacks in
    canonical order.  Idempotent; a no-op without an order source.  Called
    implicitly by every reader ({!events_of}, {!all_events},
    {!to_channel}, {!truncate_to_checkpoint}); callers only need it
    explicitly before reading [event.seq] directly.  Must not be called
    while event handlers may still append (i.e. only between engine
    windows or after the run). *)

val record_checkpoint : t -> pid:int -> index:int -> unit
val record_send : t -> pid:int -> msg_id:int -> dst:int -> unit
val record_receive : t -> pid:int -> msg_id:int -> src:int -> unit

val fresh_msg_id : t -> pid:int -> int
(** Allocates a message identifier unique across the trace
    ([k * n + pid], counting [pid]'s sends).  Ids are a pure function of
    the allocating process's own history, so they are stable under any
    interleaving of processes — sharded and sequential runs assign the
    same ids. *)

val restore_msg_ids : t -> pid:int -> count:int -> unit
(** Raise [pid]'s send counter to at least [count] sends.  The counter is
    monotone — a rollback erases send events but never reuses their ids —
    so a process whose trace is rebuilt from surviving history (live-node
    respawn) must restore the counter past the sends the truncations
    erased, or it would mint colliding ids.  Lowering is a no-op. *)

val last_checkpoint_index : t -> pid:int -> int
(** Index of the last stable checkpoint recorded for [pid]; [-1] if none. *)

val events_of : t -> pid:int -> event list
(** Events of one process, oldest first. *)

val all_events : t -> event list
(** All events sorted by sequence number (i.e., a causal linearization). *)

val truncate_to_checkpoint : t -> pid:int -> index:int -> unit
(** Erase every event of [pid] after its [Checkpoint index] event.
    @raise Invalid_argument if that checkpoint is not in the trace. *)

(* Serialization: a line-oriented text format so executions can be saved
   from one tool run and analyzed in another ([rdtgc analyze --save] /
   [rdtgc inspect]). *)

val to_channel : t -> out_channel -> unit
(** Writes the trace:
    {v
    rdtgc-trace 1
    n <processes>
    C <pid> <index>            (checkpoint)
    S <pid> <msg_id> <dst>     (send)
    R <pid> <msg_id> <src>     (receive)
    v}
    Events appear in sequence order, one line at a time (the text is
    never held whole in memory). *)

val to_string : t -> string
(** The bytes {!to_channel} writes, collected in memory. *)

val of_channel : in_channel -> t
(** Reads the format written by {!to_channel}.
    @raise Failure on malformed input. *)

val save : t -> string -> unit
val load : string -> t

(* Builder helpers: hand-constructed patterns (paper figures, tests). *)

val init_with_initial_checkpoints : n:int -> t
(** A trace in which every process has already recorded [s^0]. *)

val checkpoint : t -> int -> unit
(** [checkpoint t pid] records the next stable checkpoint of [pid]
    (index = last + 1). *)

val send : t -> src:int -> dst:int -> int
(** Records a send and returns the message id (to pass to {!receive}). *)

val receive : t -> msg_id:int -> src:int -> dst:int -> unit

val message : t -> src:int -> dst:int -> unit
(** [message t ~src ~dst] records a send immediately followed by its
    receive — the common case when transcribing a space-time diagram
    left to right. *)
