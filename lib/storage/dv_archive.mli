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

    Each present index keeps its own copy of the vector its checkpoint
    was stored with, [n] words per index: the store recycles the rows of
    the checkpoints it collects (DESIGN.md §10), so the archive cannot
    share them.  An index in a {!restore} gap costs its slot word only.
    A whole-history archive therefore grows with the run where the store
    is bounded, which is why no process keeps one unless asked.

    A rollback rewinds the archive too ({!truncate_above}): the undone
    checkpoints never existed as far as future queries are concerned. *)

type t

val restore : me:int -> entries:(int * int array) list -> t
(** Rebuild an archive from the [(index, dv)] pairs that survived a crash
    (ascending indices, as the durable store recovers them — the vectors
    of already-eliminated checkpoints are lost), taking ownership of each
    [dv]: the caller hands over fresh copies, such as those
    {!Rdt_storage.Stable_store.retained} returns, and keeps no alias.
    The archive's size resumes at one past the last surviving index, so
    subsequent {!record}s continue correctly; {!find} answers [None]
    inside the gaps.
    @raise Invalid_argument if indices are not ascending. *)

val record : t -> index:int -> dv:int array -> unit
(** Archive a copy of the vector stored with checkpoint [s^index]; [dv]
    is only read during the call (a borrowed
    {!Rdt_causality.Dependency_vector.view} is fine).
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
(** A fresh copy of the archived vector; [None] out of range and inside
    {!restore} gaps. *)

val count : t -> int
(** One past {!last_index}: the number of indices archived, gaps
    included. *)
