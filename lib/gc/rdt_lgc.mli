(** RDT-LGC — the paper's optimal asynchronous garbage collector
    (Section 4, Algorithms 1-3).

    Each process keeps an array [UC] ("uncollected checkpoints") with one
    entry per process: [UC.(f)] references the checkpoint control block
    (CCB) of the stable checkpoint retained *because of* [p_f] — the most
    recent local checkpoint not causally preceded by the last known stable
    checkpoint of [p_f] (Theorem 2).  CCBs carry a reference count; when no
    entry references a CCB, the checkpoint is obsolete and is eliminated
    from stable storage.

    The collector attaches to a {!Rdt_protocols.Middleware.t} via
    {!hooks}: it reacts to new causal dependencies (Algorithm 2, receive)
    and to checkpoint stores (Algorithm 2, taking a checkpoint), and
    handles rollbacks (Algorithm 3, with the last-interval vector [LI]
    when global information is available, or the process's own DV
    otherwise).

    Guarantees (proved in the paper, checked by this repository's tests):
    - safety: only obsolete checkpoints are eliminated (Theorem 4);
    - the invariant of Equation 4 holds at every step (Theorem 3);
    - at most [n] checkpoints are retained during normal execution
      ([n + 1] transiently while a new checkpoint is being stored);
    - optimality: every checkpoint whose obsolescence follows from causal
      knowledge is eliminated (Theorem 5). *)

type t

val create :
  me:int ->
  store:Rdt_storage.Stable_store.t ->
  dv:Rdt_causality.Dependency_vector.t ->
  n:int ->
  t
(** [create ~me ~store ~dv ~n] initializes the collector state for a
    process that has just stored its initial checkpoint [s^0] (the state
    of [Algorithm 1.initialize()] followed by the checkpoint step for
    [s^0]).  [store] must hold exactly one checkpoint and [dv] is the live
    dependency vector shared with the middleware.
    @raise Invalid_argument if the store does not hold exactly [s^0]. *)

val restore :
  me:int ->
  store:Rdt_storage.Stable_store.t ->
  dv:Rdt_causality.Dependency_vector.t ->
  n:int ->
  t
(** Collector state for a process respawned after a crash: [store] holds
    the checkpoints that survived and [dv] is the middleware's restored
    vector ({!Rdt_protocols.Middleware.restore}).  [UC] starts all-Null —
    the crash destroyed it — and is rebuilt wholesale by {!on_rollback}
    when the recovery session rolls the process back, which must happen
    before any other hook fires.
    @raise Invalid_argument if [store] is empty. *)

val attach : t -> Rdt_protocols.Middleware.t -> unit
(** Install this collector's {!hooks} on the middleware.  The middleware
    must be freshly created (only [s^0] taken). *)

val hooks : t -> Rdt_protocols.Middleware.hooks

val on_new_dependency : t -> int -> unit
(** Algorithm 2, receive: entry [j] of the DV just increased —
    [release(j); link(j, me)]. *)

val on_rollback : t -> li:int array -> unit
(** Algorithm 3: rebuild [UC] after a rollback of this process.  [li] is
    the last-interval vector when global information is available, or the
    process's own (restored) DV in the decentralized variant.  Eliminates
    every checkpoint left unreferenced. *)

val release_outdated : t -> li:int array -> unit
(** Recovery-session step for a process that did *not* roll back: release
    every entry [UC.(f)] with [DV.(f) < li.(f)] (the last stable
    checkpoint of [p_f] does not precede the local volatile state, so
    nothing needs to be retained because of [p_f]). *)

val set_test_overcollect : t -> bool -> unit
(** Test hook for the differential fuzzer's self-check
    ({!Rdt_verify.Fuzz}): when enabled, {!on_checkpoint_stored}
    additionally releases every non-local [UC] entry, so the collector
    over-collects — checkpoints other processes may still need are
    eliminated, violating Theorem 4.  The fuzzer must detect this within a
    few seeds and shrink the violation to a handful of events.  Never
    enable outside tests. *)

val uc_view : t -> int option array
(** Current [UC] contents as checkpoint indices ([None] = Null reference);
    the representation the paper's Figure 4 prints. *)

val retained_because_of : t -> int -> int option
(** [retained_because_of t f]: index of the checkpoint retained because of
    process [f], if any. *)

val slots_in_use : t -> int
[@@lint.reference "probe of the CCB table, checked against the n + 1 bound"]
(** Number of live CCBs: slots of the control-block table referenced by
    at least one [UC] entry.  Each is one retained checkpoint, so this
    stays at most [n + 1]. *)

val slot_capacity : t -> int
[@@lint.reference "probe of the CCB table, checked against the n + 1 bound"]
(** Current size of the control-block table.  It starts small and
    doubles when a new CCB finds no free slot. *)
