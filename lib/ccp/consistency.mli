(** Consistent global checkpoints and Wang's min/max constructions.

    A global checkpoint assigns one general checkpoint per process; it is
    consistent iff its members are pairwise causally unrelated
    (Section 2.2).  This module provides:

    - the consistency test;
    - the greatest consistent global checkpoint below a per-process bound
      (computed by rollback-propagation fixpoint — the construction behind
      recovery lines);
    - the minimum / maximum consistent global checkpoints containing a
      given set of local checkpoints (Wang '97, the decentralized-recovery
      computations that the RDT property makes exact);
    - a brute-force enumeration used by tests to validate the fixpoints.

    Global checkpoints are represented as [int array]: entry [i] is the
    general-checkpoint index of process [i]. *)

type global = int array

val is_consistent : Ccp.t -> global -> bool
(** Pairwise consistency of the members.
    @raise Invalid_argument if some index is not a checkpoint of the CCP. *)

val count_rolled_back : Ccp.t -> global -> int
(** Number of general checkpoints rolled back when restarting from this
    global checkpoint: [sum_i (volatile_index i - g.(i))]. *)

val max_consistent : Ccp.t -> bound:global -> global option
(** Greatest consistent global checkpoint [g] with [g.(i) <= bound.(i)]
    for all [i].  [None] only on malformed CCPs (a trace recorded by the
    middleware always admits the all-zero solution). *)

val max_consistent_containing : Ccp.t -> Ccp.ckpt list -> global option
[@@lint.reference "the fixpoint definition Tracking's answers are tested against"]
(** Maximum consistent global checkpoint containing all the given local
    checkpoints, or [None] if no consistent one contains them. *)

val min_consistent_containing : Ccp.t -> Ccp.ckpt list -> global option
[@@lint.reference "the fixpoint definition Tracking's answers are tested against"]
(** Minimum consistent global checkpoint containing all the given local
    checkpoints, or [None]. *)

val brute_force_max_consistent : Ccp.t -> bound:global -> global option
[@@lint.reference "exhaustive search: the recovery lines are tested against it"]
(** Exhaustive search over the product of all checkpoints (exponential —
    tests only): among consistent global checkpoints below [bound], the
    one minimizing {!count_rolled_back}; ties broken by... there are no
    ties: the set of consistent global checkpoints below a bound is a
    lattice, so the maximum is unique. *)
