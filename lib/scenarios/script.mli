(** Scripted executions: drive real middleware (and optionally RDT-LGC)
    through an explicit sequence of sends, receives, checkpoints, message
    losses and crash–recovery sessions, without the discrete-event engine.

    Used to transcribe the paper's space-time diagrams event by event —
    the figures fix exact interleavings that a random simulation would
    never reproduce — and by the differential fuzzer ({!Rdt_verify}) as
    the replay substrate for generated scenarios and shrunk reproducers:
    {!apply} runs one {!op} at a time. *)

type op =
  | Checkpoint of int  (** basic checkpoint of one process *)
  | Send of { id : int; src : int; dst : int }
      (** send a message; [id] names it to the ops that deliver or drop
          it, and is the script's own (the middleware mints the trace's
          message id) *)
  | Deliver of int  (** deliver in-flight message [id] *)
  | Drop of int  (** lose in-flight message [id] *)
  | Crash of int list  (** crash these processes; run a recovery session *)
(** One step of an execution: the op language of {!Rdt_verify.Scenario},
    the live coordinator and {!Figures.figure4_steps}. *)

type t

val create :
  ?knowledge:Rdt_recovery.Session.knowledge ->
  ?store_of:(me:int -> Rdt_storage.Stable_store.t) ->
  n:int ->
  protocol:Rdt_protocols.Protocol.t ->
  with_lgc:bool ->
  unit ->
  t
(** Fresh system; every process has stored its initial checkpoint and,
    when [with_lgc], has an attached RDT-LGC collector.  [knowledge]
    (default [`Global]) selects the recovery-session mode a [Crash] op
    runs.  [store_of] supplies pre-built (empty) stable stores — e.g.
    ones whose durability backend is a {!Rdt_store.Log_store} — one per
    process; default: fresh in-memory stores. *)

val n : t -> int

val advances_clock : op -> bool
(** The virtual clock's rule: every op but a [Drop] advances it by one
    unit before it runs.  The live coordinator stamps its commands by
    the same rule, so live checkpoint [taken_at] stamps equal a
    replay's. *)

val apply : t -> op -> Rdt_recovery.Session.report option
(** Runs one op through the real middleware.  In-flight messages are
    keyed by the op's message id; a delivery is to the destination given
    at send time.  A [Crash] is a stop-world crash of the faulty set
    followed at once by a centralized recovery session
    ({!Rdt_recovery.Session.run}) in the script's knowledge mode, whose
    report it returns; it first discards every message still in flight
    (the CCP excludes lost and in-transit messages).  Other ops return
    [None].
    @raise Invalid_argument on a [Send] of an id already in flight, a
    [Deliver] or [Drop] of an id not in flight (never sent, delivered,
    dropped or crash-flushed), or a [Crash] of an empty or out-of-range
    faulty set; the clock has advanced by then. *)

val checkpoint : t -> int -> unit
(** [apply] of a [Checkpoint]. *)

val transfer : t -> src:int -> dst:int -> unit
(** A [Send] delivered at once — for diagram arrows with no crossing.
    Its message travels under the id [min_int], which it frees before it
    returns. *)

val crash_count : t -> int
(** Recovery sessions run so far. *)

val stack : t -> int -> Rdt_recovery.Process_stack.t
(** One process's store → middleware → collector stack. *)

val middleware : t -> int -> Rdt_protocols.Middleware.t
val collector : t -> int -> Rdt_gc.Rdt_lgc.t option
val store : t -> int -> Rdt_storage.Stable_store.t

val dv : t -> int -> int array
(** Current dependency vector of one process. *)

val uc : t -> int -> int option array
(** Current UC view (requires [with_lgc]).
    @raise Invalid_argument otherwise. *)

val retained : t -> int -> int list
(** Currently retained checkpoint indices of one process. *)

val trace : t -> Rdt_ccp.Trace.t
val ccp : t -> Rdt_ccp.Ccp.t

val forced_taken : t -> int -> int
(** Forced checkpoints the protocol has injected at one process (scripts
    that transcribe figures usually assert this stays zero). *)
