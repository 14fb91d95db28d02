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

    Precedence is evaluated with Equation 2 over each process's
    {!Rdt_storage.Dv_archive.t} (the middleware builds one on the first
    {!Rdt_protocols.Middleware.archive} call) and live DV.  From that call
    on, the archive keeps the vector of every checkpoint a rollback did
    not undo, eliminated ones included, so tracking and aggressive garbage
    collection coexist as long as the archives are asked for before the
    run collects anything; every caller does.  The maximum is a binary
    search ({!Rdt_gc.Global_gc.first_reaching}) over the archive, and the
    minimum a closed form ([c^g_pid -> s] iff [g < DV(s).(pid)], so per
    process the largest [DV(s).(pid)], capped at the volatile index).  A
    checkpoint found this way may itself have been collected: these
    computations answer causality placement questions (breakpoints,
    error propagation analysis), not restart-ability.  The test suite
    cross-checks these closed forms against the trace-based lattice
    fixpoints of {!Rdt_ccp.Consistency} on random executions. *)

type target = { pid : int; index : int }

val max_consistent_containing :
  archives:Rdt_storage.Dv_archive.t array ->
  live_dvs:int array array ->
  target list ->
  int array option
(** [archives.(p)] and [live_dvs.(p)] are process [p]'s archive and live
    DV.  [None] when the targets are not pairwise consistent (no
    consistent global checkpoint contains them).
    @raise Invalid_argument on an empty archive, bad targets, two
    targets on one process, or a search that reaches an index the archive
    holds no vector for (a [Dv_archive.restore] gap). *)

val min_consistent_containing :
  archives:Rdt_storage.Dv_archive.t array ->
  live_dvs:int array array ->
  target list ->
  int array option
(** Dual of {!max_consistent_containing}; [None] under the same
    condition. *)
