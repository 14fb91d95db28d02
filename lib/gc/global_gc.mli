(** Global-knowledge garbage-collection computations over dependency
    vectors — the building blocks of the coordinated baselines the paper
    contrasts RDT-LGC with (Wang et al. [21]; Bhargava & Lian / the survey
    [5, 8]).

    These functions are pure: the runner gathers each process's snapshot
    (retained checkpoints with their stored DVs, live DV, last index) over
    simulated control messages, calls into here at the coordinator, and
    disseminates the results.  Correctness relies on Equation 2
    ([c^alpha_a -> c^beta_b <=> alpha < DV(c^beta_b)[a]]), hence on RDT.

    Staleness safety: obsolescence is stable (an obsolete checkpoint stays
    obsolete), so evaluating Theorem 1 on an old consistent snapshot can
    only under-collect, never over-collect.  Using a *lower bound* on
    another process's last index is exactly the same situation. *)

type snapshot = {
  entries : Rdt_storage.Stable_store.entry array;
      (** retained stable checkpoints, ascending index order *)
  live_dv : int array;  (** DV of the volatile state at snapshot time *)
}
(** One process's reply to the coordinator's query. *)

val last_interval_vector : snapshot array -> int array
(** [LI]: entry [f] is [last_s(f) + 1] as of the snapshots. *)

val retained_for :
  entries:Rdt_storage.Stable_store.entry array ->
  live_dv:int array ->
  f:int ->
  li_f:int ->
  int option
(** The checkpoint one process retains *because of* [p_f], knowing that
    [p_f]'s last interval is at least [li_f] (Algorithm 3 line 9,
    generalized to stale knowledge — see {!Rdt_lgc}): the most recent
    entry whose successor's DV reaches [li_f] in component [f] while its
    own does not.  [entries] must be in ascending index order; [live_dv]
    stands in for the successor of the last entry. *)

val theorem1_retained : snapshot array -> me:int -> li:int array -> int list
(** Indices process [me] must retain according to Theorem 1 evaluated with
    the last-interval vector [li]: for each [f] with [li.(f) >= 1], the
    most recent stable checkpoint whose successor's DV reaches [li.(f)] in
    entry [f] while its own does not; plus always the last stable
    checkpoint. *)

val theorem1_retained_count : snapshot array -> me:int -> li:int array -> int
(** [List.length (theorem1_retained ...)] without materializing the list —
    the runner's per-sample "optimal" instrumentation. *)

val theorem1_collectable : snapshot array -> me:int -> li:int array -> int list
(** Complement of {!theorem1_retained} within the retained set — what the
    Wang-style coordinated collector tells [me] to eliminate. *)

val theorem2_collectable :
  entries:Rdt_storage.Stable_store.entry array ->
  live_dv:int array ->
  int list
(** Corollary 1 evaluated from one process's own state alone (Theorem 2:
    [li] is the process's own dependency vector): the checkpoints of
    [entries] an optimal asynchronous collector eliminates at this
    instant.  RDT-LGC maintains the retained complement incrementally;
    this closed form recomputes it from scratch — used by the
    lazy-collection ablation and by the optimality audits. *)
