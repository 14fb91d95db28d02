(** Decentralized consistent-global-checkpoint tracking (Wang '97).

    The practical payoff of the RDT property (paper, Sections 1 and 5):
    because every checkpoint dependency is captured by the dependency
    vectors, the minimum and maximum consistent global checkpoints
    containing a given set of local checkpoints can be computed directly
    from stored DVs — no zigzag analysis, no extra communication.  This is
    what enables decentralized recovery-line calculation, software error
    recovery and causal distributed breakpoints.

    Closed forms (valid on RD-trackable patterns, [S] itself pairwise
    consistent):
    - maximum: per process, the *last* checkpoint causally preceded by no
      member of [S] (members of [S] fixed);
    - minimum: per process, the *first* checkpoint that causally precedes
      no member of [S].

    Precedence is evaluated with Equation 2 over the DVs stored in the
    snapshots, so the snapshots must describe every checkpoint (run
    without garbage collection, or keep archived DVs — checkpoints are
    full states, while the archive keeps about one word per changed DV
    entry, see {!Rdt_storage.Dv_archive}).  The test
    suite cross-checks these closed forms against the trace-based lattice
    fixpoints of {!Rdt_ccp.Consistency} on random executions. *)

type target = { pid : int; index : int }

val max_consistent_containing :
  Rdt_gc.Global_gc.snapshot array -> target list -> int array option
(** [None] when the targets are not pairwise consistent (no consistent
    global checkpoint contains them).
    @raise Invalid_argument on bad targets or two targets on one
    process. *)

val min_consistent_containing :
  Rdt_gc.Global_gc.snapshot array -> target list -> int array option
(** Dual of {!max_consistent_containing}; [None] under the same
    condition. *)

val consistent_pair :
  Rdt_gc.Global_gc.snapshot array -> target -> target -> bool
(** Equation-2 consistency test between two stable checkpoints. *)

(** {2 Archive-based variants}

    The snapshot-based functions above need every checkpoint still in the
    store.  With garbage collection running, use the per-process
    {!Rdt_storage.Dv_archive.t} instead (the middleware maintains one):
    eliminated checkpoints keep their vectors there, so tracking and
    aggressive collection coexist.  Note that a checkpoint found this way
    may itself have been collected — these computations answer causality
    placement questions (breakpoints, error propagation analysis), not
    restart-ability. *)

val max_consistent_containing_archived :
  archives:Rdt_storage.Dv_archive.t array ->
  live_dvs:int array array ->
  target list ->
  int array option

val min_consistent_containing_archived :
  archives:Rdt_storage.Dv_archive.t array ->
  live_dvs:int array array ->
  target list ->
  int array option
