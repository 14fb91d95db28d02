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

    A vector is not kept whole for every checkpoint: that would be [n]
    words per checkpoint forever, unbounded where the store itself is
    bounded.  Per process, every 32nd index (and the first index after a
    {!restore} gap) is a key, kept by reference; every other index keeps
    only the entries that changed since the previous index, one packed
    [int] each in an {!Rdt_sim.Int_column}, plus one descriptor word.
    Consecutive checkpoints of one process change few entries, so the
    archive costs about [d + 1] words per checkpoint for [d] changed
    entries, plus one shared key vector in 32.

    A rollback rewinds the archive too ({!truncate_above}): the undone
    checkpoints never existed as far as future queries are concerned. *)

type t

val create : me:int -> t

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
    recorded index (checkpoints are taken in order), if [dv] is empty or
    differs in length from the vectors already recorded, or if [index] is
    not a key and an entry that changed since [index - 1] is negative or
    above [(max_int - n + 1) / n] (the range of the packed form;
    dependency-vector entries are checkpoint indices, far below it). *)

val truncate_above : t -> index:int -> unit
(** Forget every archived vector with index strictly greater than
    [index]; a no-op when [index >= last_index].
    @raise Invalid_argument if [index < -1]. *)

val last_index : t -> int
(** Greatest archived index; [-1] when empty. *)

val find : t -> index:int -> int array option
(** A fresh copy of the archived vector, rebuilt from the nearest key at
    or below [index] in O(n + 32·d) for [d] changed entries per
    checkpoint; [None] out of range and inside {!restore} gaps. *)

val count : t -> int
(** One past {!last_index}: the number of indices archived, gaps
    included. *)
