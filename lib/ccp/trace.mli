(** Recorded execution of a checkpointed distributed computation.

    The checkpointing middleware appends events here as the simulation
    runs; {!Ccp.of_trace} later turns the trace into a checkpoint and
    communication pattern for analysis.  Events carry a global sequence
    number: since a receive is always sequenced after its send, the
    sequence order is a linearization consistent with causality, which
    the analyzers exploit.  Sequence numbers are assigned at record
    time.

    Rollback support: {!truncate_to_checkpoint} rewinds one process to just
    after a stable checkpoint, erasing the undone events.  Sends erased
    this way make the message disappear from the computation (equivalent to
    a loss, which the model allows); a surviving receive of an erased send
    would mean the rollback was inconsistent, and {!Ccp.of_trace} treats it
    as an error.

    Storage: each process's log is a run of byte chunks of up to 4 KiB.
    An event starts with one header byte, its kind and the
    sequence-number delta from the process's previous event (a delta of
    64 or more adds a LEB128 varint).  A checkpoint at the index the log
    predicts (the last one + 1) is that byte alone; a send at the
    predicted id (the last send id + [n]) adds its peer; a receive of id
    [k * n + src] adds one varint, the change in [k] since the previous
    receive above [src].  Any other event adds the peer above a 2-bit
    tag and the zigzagged payload delta from the predicted value.  An
    event takes about 2.1 bytes in an [n = 8] simulated run.  Each
    chunk's head holds the decoder state at its start, so readers
    decode forwards with one cursor per process and a truncation
    decodes only the chunks it scans back over. *)

type tag =
  | Checkpoint  (** the process stored stable checkpoint [s^payload] *)
  | Send  (** the process sent message [payload] to [peer] *)
  | Receive  (** the process received message [payload] from [peer] *)

(** Read-only window onto one recorded event.  The trace stores events
    as packed bytes, not as records; readers and subscribers
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
    builder helpers below do).  No log storage is allocated until a
    process records its first event. *)

val n : t -> int

val set_recording : t -> bool -> unit
(** Disable (or re-enable) event storage.  A muted trace stores nothing
    and cuts nothing: the [record_*] functions check and keep nothing and
    {!truncate_to_checkpoint} is a no-op, so a muted run survives
    rollbacks.  It still mints message ids and still hands every event to
    the {!on_event} subscribers, so it serves as an event tap (a live
    node's, which keeps no transcript of its own) and, with no
    subscriber, costs nothing (benchmarks that drive the middleware in a
    hot loop, and every simulation run that [Runner.create] was not asked
    to record).  A trace that was handed an event while muted is no
    longer the whole execution: it remembers that, and from then on
    {!length}, {!iter}, {!to_string}, {!save}, the builder {!checkpoint}
    and so {!Ccp.of_trace} raise [Invalid_argument], even after recording
    is switched back on. *)

val on_event : t -> (View.t -> unit) -> unit
(** Subscribe to appends: the callback runs after each event is recorded
    (so in global sequence order — the same linearization {!iter}
    walks).  The view is the trace's own and is valid only during the
    callback; delivering an event allocates nothing.  {!Ccp.Incremental}
    subscribes here to keep an analysis graph up to date in O(new
    events).  Callbacks fire on a muted trace too ({!set_recording});
    only its truncations are silent. *)

val on_truncate : t -> (pid:int -> unit) -> unit
(** Subscribe to rollbacks: the callback runs after
    {!truncate_to_checkpoint} erased a suffix of [pid]'s log.  Incremental
    consumers treat this as a cache invalidation (truncation can retract
    events a subscriber already folded in). *)

val record_checkpoint : t -> pid:int -> index:int -> unit
val record_send : t -> pid:int -> msg_id:int -> dst:int -> unit
val record_receive : t -> pid:int -> msg_id:int -> src:int -> unit
(** Append one event to [pid]'s log.
    @raise Invalid_argument if [pid] or the peer ([dst], [src]) is outside
    [\[0, n)], or if the payload ([index], [msg_id]) is negative or too
    wide for the packed code, which never wraps: a code is the payload
    above the peer's bits above a 2-bit tag, so the largest checkpoint
    index or message id depends on [n] ([2^57 - 1] at [n = 8]).  A muted
    trace ({!set_recording}) checks nothing. *)

val fresh_msg_id : t -> pid:int -> int
(** Allocates a message identifier unique across the trace
    ([k * n + pid], counting [pid]'s sends).  Ids are a pure function of
    the allocating process's own history, so they are stable under any
    interleaving of processes. *)

val restore_msg_ids : t -> pid:int -> count:int -> unit
(** Raise [pid]'s send counter to at least [count] sends.  The counter is
    monotone — a rollback erases send events but never reuses their ids —
    so a process that restarts on a fresh trace (live-node respawn) must
    restore the counter past every send it ever made, or it would mint
    colliding ids.  Lowering is a no-op. *)

val length : t -> int
(** Number of events in the trace.
    @raise Invalid_argument like {!iter}. *)

val iter : t -> (View.t -> unit) -> unit
(** All events in sequence order (a causal linearization): a k-way merge
    of the per-process logs, each of which is already in sequence order.
    The callback must not record into or truncate the trace.
    @raise Invalid_argument if the trace dropped an event while muted
    ({!set_recording}). *)

val truncate_to_checkpoint : t -> pid:int -> index:int -> unit
(** Erase every event of [pid] after its last [Checkpoint index] event,
    scanning back from the tail of the log a chunk at a time (a rollback
    cuts near it).
    While recording is off it does nothing and {!on_truncate} callbacks do
    not fire.
    @raise Invalid_argument if that checkpoint is not in the trace. *)

(* Serialization: a line-oriented text format so executions can be saved
   from one tool run and analyzed in another ([rdtgc analyze --save] /
   [rdtgc inspect]). *)

val save : t -> string -> unit
(** Writes the trace to a file:
    {v
    rdtgc-trace 1
    n <processes>
    C <pid> <index>            (checkpoint)
    S <pid> <msg_id> <dst>     (send)
    R <pid> <msg_id> <src>     (receive)
    v}
    Events appear in sequence order, a line at a time (the text is never
    held whole in memory).
    @raise Invalid_argument like {!iter}, before the file is opened. *)

val to_string : t -> string
(** The bytes {!save} writes, collected in memory.
    @raise Invalid_argument like {!iter}. *)

val load : string -> t
(** Reads the file {!save} writes.
    @raise Failure on malformed input, including a line the recorders
    reject (a pid or peer outside [\[0, n)], a payload the packed code
    cannot hold): [Failure "Trace.of_channel: bad line ..."]. *)

(* Builder helpers: hand-constructed patterns (paper figures, tests). *)

val init_with_initial_checkpoints : n:int -> t
(** A trace in which every process has already recorded [s^0]. *)

val checkpoint : t -> int -> unit
(** [checkpoint t pid] records the next stable checkpoint of [pid]
    (index = last + 1).
    @raise Invalid_argument like {!iter}: a muted trace that dropped
    events no longer knows the last index. *)

val send : t -> src:int -> dst:int -> int
(** Records a send and returns the message id (to pass to {!receive}). *)

val receive : t -> msg_id:int -> src:int -> dst:int -> unit

val message : t -> src:int -> dst:int -> unit
(** [message t ~src ~dst] records a send immediately followed by its
    receive — the common case when transcribing a space-time diagram
    left to right. *)
