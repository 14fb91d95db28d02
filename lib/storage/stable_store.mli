(** Per-process stable-storage model.

    Holds the stable checkpoints a process currently retains, together with
    the dependency vector stored alongside each one (the paper stores DV
    with every checkpoint for recovery purposes).  Storage survives
    crashes; garbage collectors call {!eliminate} and rollbacks call
    {!truncate_above}.  The module counts stored and eliminated
    checkpoints and the peak retained count ({!stats}). *)

type entry = {
  index : int;  (** checkpoint index gamma of [s^gamma] *)
  dv : int array;  (** dependency vector stored with the checkpoint *)
  taken_at : float;  (** virtual time at which it was stored *)
  size_bytes : int;  (** synthetic application-state size *)
  payload : int;
      (** the checkpointed application state itself (synthetic: a
          deterministic digest of the process's history) — what a rollback
          restores *)
}

type stats = {
  stored_total : int;  (** checkpoints ever written *)
  eliminated_total : int;  (** checkpoints ever collected *)
  peak_count : int;  (** maximum simultaneously retained *)
}

type backend = {
  b_store : entry -> unit;  (** a checkpoint was written *)
  b_eliminate : entry -> unit;  (** a checkpoint was collected *)
  b_truncate_above : index:int -> unit;
      (** a rollback removed everything above [index] *)
}
(** Durability mirror.  The in-memory map stays the source of truth for
    queries ([find]/[mem]/[retained] never touch the disk); every
    *mutation* is forwarded to the backend after the map is updated, so a
    log-structured store ({!Rdt_store.Log_store}) can persist the same
    history the simulator sees.  A backend call that raises (injected
    storage crash) leaves the in-memory map updated — the volatile state
    is ahead of the durable one, exactly the situation crash recovery must
    cope with. *)

type t

val create : me:int -> t
(** No backend: the pure in-memory model. *)

val set_backend : t -> backend -> unit
(** Attach the durability mirror.  Must happen before the first mutation
    (i.e. before the middleware stores [s^0]); mutations already applied
    are not replayed into the backend. *)

val restore : me:int -> entries:entry list -> t
(** Rebuild a store from checkpoints that survived a crash ([entries] in
    ascending index order, as {!Rdt_store.Log_store} recovers them).  A
    backend attached afterwards sees only *new* mutations — the restored
    entries are already durable.  The statistics restart from the restored
    population ([stored_total] = number of entries, nothing
    eliminated). *)

val store_from :
  t ->
  index:int ->
  dv:int array ->
  now:float ->
  size_bytes:int ->
  ?payload:int ->
  unit ->
  entry
(** Writes [s^index].  [dv] is only read during the call (a borrowed
    {!Rdt_causality.Dependency_vector.view} is fine) and is copied
    internally exactly once — the store-boundary copy of DESIGN.md §10.
    Returns the stored entry so callers that need the same snapshot
    elsewhere (e.g. the DV archive) can share [entry.dv] instead of
    copying again; the entry's vector is immutable from here on.
    @raise Invalid_argument if the index is not greater than every
    retained index (checkpoints are written in order; after a rollback
    the undone ones are truncated first). *)

val eliminate : t -> index:int -> unit
(** Collects one checkpoint.  @raise Invalid_argument if not retained. *)

val truncate_above : t -> index:int -> int
(** Eliminates every retained checkpoint with index strictly greater than
    [index] (a rollback to [s^index]); returns how many were removed. *)

val mem : t -> index:int -> bool
val find : t -> index:int -> entry option

val last_index : t -> int
(** Greatest retained index; [-1] when empty. *)

val retained : t -> entry list
(** Retained checkpoints, in increasing index order. *)

val retained_indices : t -> int list
val count : t -> int
val stats : t -> stats

val pp : Format.formatter -> t -> unit
