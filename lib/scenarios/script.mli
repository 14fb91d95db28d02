(** Scripted executions: drive real middleware (and optionally RDT-LGC)
    through an explicit sequence of sends, receives, checkpoints, message
    losses and crash–recovery sessions, without the discrete-event engine.

    Used to transcribe the paper's space-time diagrams event by event —
    the figures fix exact interleavings that a random simulation would
    never reproduce — and by the differential fuzzer ({!Rdt_verify}) as
    the replay substrate for generated scenarios and shrunk reproducers.
    Virtual time advances by one unit per operation. *)

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
    (default [`Global]) selects the recovery-session mode used by
    {!crash}.  [store_of] supplies pre-built (empty) stable stores — e.g.
    ones whose durability backend is a {!Rdt_store.Log_store} — one per
    process; default: fresh in-memory stores. *)

val n : t -> int

val checkpoint : t -> int -> unit
(** Basic checkpoint of one process. *)

type msg
(** An in-flight message. *)

val send : t -> src:int -> dst:int -> msg
val deliver : t -> msg -> unit
(** @raise Invalid_argument if already delivered, lost, or wrong script
    order (delivery is to the destination given at send time). *)

val transfer : t -> src:int -> dst:int -> unit
(** [send] immediately followed by [deliver] — for diagram arrows with no
    crossing. *)

val drop : t -> msg -> unit
(** Lose an in-flight message (the asynchronous model allows it); the
    message can no longer be delivered.
    @raise Invalid_argument if already delivered or already lost. *)

val alive : t -> msg -> bool
(** Still in flight: neither delivered, dropped, nor crash-flushed. *)

val crash : t -> faulty:int list -> Rdt_recovery.Session.report
(** Stop-world crash of [faulty] followed immediately by a centralized
    recovery session ({!Rdt_recovery.Session.run}) in the script's
    knowledge mode.  Every message still in flight is discarded first (the
    CCP excludes lost and in-transit messages); delivering one of them
    afterwards raises.
    @raise Invalid_argument on an empty or out-of-range faulty set. *)

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
