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
    as an error.

    Storage: each process's log is two [int] columns — the sequence
    number and one packed code holding the tag, the peer and the payload
    — kept in fixed-size chunks, about two words per event. *)

type tag =
  | Checkpoint  (** the process stored stable checkpoint [s^payload] *)
  | Send  (** the process sent message [payload] to [peer] *)
  | Receive  (** the process received message [payload] from [peer] *)

(** Read-only window onto one recorded event.  The trace stores events
    as packed integer columns, not as records; readers and subscribers
    are handed a view the trace reuses, so reading an event allocates
    nothing.  A view is valid only during the callback it is passed to:
    copy out the fields to keep them. *)
module View : sig
  type t

  val seq : t -> int
  val pid : t -> int
  val tag : t -> tag

  val peer : t -> int
  (** The destination of a send, the source of a receive; [0] for a
      checkpoint. *)

  val payload : t -> int
  (** The checkpoint index, or the message id. *)
end

type t

val create : n:int -> t
(** Empty trace for [n] processes.  Initial checkpoints are not implicit:
    record checkpoint [0] for each process (the middleware and the
    builder helpers below do).  No column storage is allocated until a
    process records its first event. *)

val n : t -> int

val set_recording : t -> bool -> unit
(** Disable (or re-enable) event recording.  With recording off the
    [record_*] functions and {!truncate_to_checkpoint} are no-ops
    (message ids are still allocated), so a muted run survives rollbacks;
    used by benchmarks that drive the middleware in a hot loop and must
    not accumulate an unbounded log.  A trace that was paused is no
    longer a faithful basis for {!Ccp.of_trace}. *)

val on_event : t -> (View.t -> unit) -> unit
(** Subscribe to appends: the callback runs after each event is recorded
    (so in global sequence order — the same linearization {!iter}
    walks).  The view is the trace's own and is valid only during the
    callback; delivering an event allocates nothing.  {!Ccp.Incremental}
    subscribes here to keep an analysis graph up to date in O(new
    events).  Callbacks do not fire while recording is off. *)

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
    implicitly by every reader ({!iter}, {!iter_pid}, {!fold},
    {!fold_pid}, {!to_channel}, {!truncate_to_checkpoint}); callers only
    need it explicitly to fire pending {!on_event} callbacks.  Must not be
    called while event handlers may still append (i.e. only between
    engine windows or after the run). *)

val record_checkpoint : t -> pid:int -> index:int -> unit
val record_send : t -> pid:int -> msg_id:int -> dst:int -> unit
val record_receive : t -> pid:int -> msg_id:int -> src:int -> unit
(** Append one event to [pid]'s log.
    @raise Invalid_argument if [pid] or the peer ([dst], [src]) is outside
    [\[0, n)], or if the payload ([index], [msg_id]) is outside
    [\[0, max_payload t\]] — the packed code never wraps.  A muted trace
    ({!set_recording}) checks nothing. *)

val max_payload : t -> int
(** The largest checkpoint index or message id the packed code holds: a
    code is the payload above the peer's bits above a 2-bit tag, so the
    bound depends on [n] ([2^57 - 1] at [n = 8]). *)

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
(** Index of the last stable checkpoint in [pid]'s log; [-1] if none.
    O(1): kept up to date by the recorders and {!truncate_to_checkpoint}. *)

val length : t -> int
(** Number of events in the trace. *)

val iter : t -> (View.t -> unit) -> unit
(** All events in sequence order (a causal linearization): a k-way merge
    of the per-process logs, each of which is already in sequence order.
    The callback must not record into or truncate the trace. *)

val iter_pid : t -> pid:int -> (View.t -> unit) -> unit
(** Events of one process, oldest first. *)

val fold : t -> init:'a -> ('a -> View.t -> 'a) -> 'a
(** {!iter} as a fold. *)

val fold_pid : t -> pid:int -> init:'a -> ('a -> View.t -> 'a) -> 'a
(** {!iter_pid} as a fold. *)

val truncate_to_checkpoint : t -> pid:int -> index:int -> unit
(** Erase every event of [pid] after its last [Checkpoint index] event,
    scanning back from the tail of the log (a rollback cuts near it).
    While recording is off it does nothing and {!on_truncate} callbacks do
    not fire.
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
    @raise Failure on malformed input, including a line the recorders
    reject (a pid or peer outside [\[0, n)], a payload outside
    [\[0, max_payload\]]): [Failure "Trace.of_channel: bad line ..."]. *)

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
