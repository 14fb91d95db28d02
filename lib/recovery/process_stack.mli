(** One process's checkpointing stack: stable store (optionally mirrored
    to an on-disk {!Rdt_store.Log_store}) → {!Rdt_protocols.Middleware} →
    optional {!Rdt_gc.Rdt_lgc}.  Every driver builds, restores and closes
    stacks here, so the order RDT-LGC's correctness depends on exists once
    (DESIGN.md §14.1):

    - bootstrap (Algorithm 1): the durability backend is set before [s^0]
      is stored; the collector is created on the [s^0]-only store and
      attached before any activity;
    - respawn (Algorithm 3): recovered checkpoints →
      {!Rdt_storage.Stable_store.restore} → backend →
      {!Rdt_protocols.Middleware.restore} → {!Rdt_gc.Rdt_lgc.restore} +
      attach;
    - a stack owns the log store it was given; {!close} closes it. *)

type t

val create :
  n:int ->
  me:int ->
  protocol:Rdt_protocols.Protocol.t ->
  trace:Rdt_ccp.Trace.t ->
  ?ckpt_bytes:int ->
  ?store:Rdt_storage.Stable_store.t ->
  ?log:Rdt_store.Log_store.t ->
  with_lgc:bool ->
  unit ->
  t
(** A fresh process that has stored [s^0], with an attached collector iff
    [with_lgc].  The store is [store] (which must be empty) if given, else
    [durable_store ~me log] if [log] is given, else in memory. *)

val durable_store :
  me:int ->
  ?wrap:(Rdt_storage.Stable_store.backend -> Rdt_storage.Stable_store.backend) ->
  Rdt_store.Log_store.t ->
  Rdt_storage.Stable_store.t
(** An empty stable store mirrored to the log through [wrap] (default: as
    is) — how the fuzz harness interposes its crash-consistency shadow. *)

val restore :
  n:int ->
  me:int ->
  protocol:Rdt_protocols.Protocol.t ->
  trace:Rdt_ccp.Trace.t ->
  log:Rdt_store.Log_store.t ->
  with_lgc:bool ->
  unit ->
  t
(** Respawn a process from what [log] recovered, and from nothing else
    (Algorithm 3).  The DV is the last checkpoint's with the own entry + 1
    and [UC] is all-Null until the recovery session's rollback; new
    checkpoints keep the last checkpoint's size.  [trace]
    only mints ids and receives the new events: a muted one
    ({!Rdt_ccp.Trace.set_recording}) with its message ids restored, as a
    live node uses.  A recording [trace] must hold a checkpoint the
    session rolls back to.
    @raise Invalid_argument if the log recovered nothing. *)

val recovered :
  config:Rdt_store.Log_store.config ->
  pid:int ->
  dir:string ->
  Rdt_storage.Stable_store.entry list
(** Open a store directory, return the checkpoints its recovery scan
    found and close it again. *)

val middleware : t -> Rdt_protocols.Middleware.t
val collector : t -> Rdt_gc.Rdt_lgc.t option
val store : t -> Rdt_storage.Stable_store.t
val log_store : t -> Rdt_store.Log_store.t option

val release_outdated : t -> li:int array -> unit
(** {!Rdt_gc.Rdt_lgc.release_outdated}; a no-op without a collector. *)

val session :
  t array -> faulty:int list -> knowledge:Session.knowledge -> Session.report
(** {!Session.run} over a system of stacks indexed by pid, with
    {!Session.in_memory} handles whose release is {!release_outdated}. *)

val close : t -> unit
(** Close the owned log store, if any. *)
