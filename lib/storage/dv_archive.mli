(** Archive of dependency vectors, one per checkpoint taken since the
    archive was started.

    Garbage collection eliminates checkpoint *states* (which are large);
    the archive keeps their dependency vectors, so causality queries about
    collected checkpoints still have answers — which is what the
    decentralized min/max consistent-global-checkpoint computations
    ({!Rdt_recovery.Tracking}) need to work alongside an aggressive
    collector.  Nothing else reads it, so a process keeps none by
    default: {!Rdt_protocols.Middleware.archive} starts one on its first
    call, seeded by {!restore} from the checkpoints the store still
    retains, and records every checkpoint from then on.

    Each present index keeps the vector its checkpoint was stored with,
    shared by reference with the store's entry, so the archive adds one
    slot word per index on top of vectors the store already holds while
    it retains them; once a checkpoint is collected its vector lives on
    here alone, [n] words for each such index.  An index in a {!restore}
    gap costs its slot word only.  A whole-history archive therefore
    grows with the run where the store is bounded, which is why no
    process keeps one unless asked.

    A rollback rewinds the archive too ({!truncate_above}): the undone
    checkpoints never existed as far as future queries are concerned. *)

type t

val restore : me:int -> entries:(int * int array) list -> t
(** Rebuild an archive from the [(index, dv)] pairs that survived a crash
    (ascending indices, as the durable store recovers them — the vectors
    of already-eliminated checkpoints are lost), taking shared ownership
    of each [dv] as {!record} does.  The archive's size resumes at one
    past the last surviving index, so subsequent {!record}s continue
    correctly; {!find} answers [None] inside the gaps.
    @raise Invalid_argument if indices are not ascending. *)

val record : t -> index:int -> dv:int array -> unit
(** Archive the vector stored with checkpoint [s^index], taking shared
    ownership of [dv] without copying: the caller guarantees the array is
    immutable from now on — e.g. the snapshot a
    {!Rdt_storage.Stable_store.store_from} entry already owns.  This keeps
    the checkpoint hot path at exactly one copy (DESIGN.md §10).
    @raise Invalid_argument unless [index] is exactly one past the last
    recorded index (checkpoints are taken in order), or if [dv] is empty
    or differs in length from the vectors already recorded. *)

val truncate_above : t -> index:int -> unit
(** Forget every archived vector with index strictly greater than
    [index]; a no-op when [index >= last_index].
    @raise Invalid_argument if [index < -1]. *)

val last_index : t -> int
(** Greatest archived index; [-1] when empty. *)

val find : t -> index:int -> int array option
(** A fresh copy of the archived vector (the archived array itself is the
    stored checkpoint's and must not be handed out); [None] out of range
    and inside {!restore} gaps. *)

val count : t -> int
(** One past {!last_index}: the number of indices archived, gaps
    included. *)
