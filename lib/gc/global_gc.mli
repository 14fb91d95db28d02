(** Garbage-collection computations over stored dependency vectors — the
    building blocks of the coordinated baselines the paper contrasts
    RDT-LGC with (Wang et al. [21]; Bhargava & Lian / the survey [5, 8]).
    Pure: the runner gathers the snapshots and disseminates the results.

    Equation 2 ([c^alpha_a -> c^beta_b <=> alpha < DV(c^beta_b)[a]],
    exact under RDT) makes every question asked of stored DVs one search,
    {!first_reaching}; Lemma 1 ([Recovery_line.from_snapshots]) and Wang's
    maximum ([Tracking]) use it too.

    Staleness safety: obsolescence is stable (an obsolete checkpoint stays
    obsolete), so evaluating Theorem 1 on an old consistent snapshot can
    only under-collect, never over-collect.  Using a *lower bound* on
    another process's last index is exactly the same situation. *)

type snapshot = {
  entries : Rdt_storage.Stable_store.entry array;
      (** retained stable checkpoints, ascending index order *)
  live_dv : int array;  (** DV of the volatile state at snapshot time *)
}
(** One process's reply to the coordinator's query.  Its *positions* are
    [0 .. len - 1] for [entries] and [len] for the volatile state. *)

val last_interval_vector : snapshot array -> int array
(** [LI]: entry [f] is [last_s(f) + 1] as of the snapshots. *)

val dv_at : snapshot -> int -> int array
(** The DV at a position of the snapshot: [entries.(pos).dv] below
    [len], [live_dv] at [len].  Not a copy. *)

val first_reaching :
  len:int -> dv_at:(int -> int array) -> f:int -> x:int -> int
(** The smallest position [p] in [0 .. len] with [(dv_at p).(f) >= x]
    (by Equation 2, the first checkpoint [c^(x-1)_f] precedes), or
    [len + 1] if none.  Positions [0 .. len - 1] are stored checkpoints
    in index order and [len] the volatile state; entry [f] must be
    nondecreasing over them.  O(log len) calls to [dv_at]. *)

val retained_for : snapshot -> f:int -> li_f:int -> int option
(** The position of the checkpoint a process retains *because of* [p_f],
    knowing that [p_f]'s last interval is at least [li_f] (Algorithm 3
    line 9, generalized to stale knowledge — see {!Rdt_lgc}): the stored
    position just before the first one that reaches [li_f] in entry
    [f], if both exist. *)

val retained : snapshot -> li:int array -> int list
(** Indices (ascending) to retain by Theorem 1 evaluated with [li]
    ({!last_interval_vector}, or for Theorem 2 the snapshot's own
    [live_dv]): {!retained_for} each [f], plus the last stable checkpoint.
    @raise Invalid_argument if the snapshot holds no checkpoint. *)

val collectable : snapshot -> li:int array -> int list
(** The snapshot's other indices (ascending): what the collector
    eliminates. *)
