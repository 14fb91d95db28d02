(** Recovery lines (paper, Definition 5 and Lemma 1).

    Given a set [F] of faulty processes, the recovery line [R_F] is the
    consistent global checkpoint that excludes the volatile checkpoints of
    faulty processes and minimizes the number of general checkpoints
    rolled back.  Lemma 1 characterizes it for RD-trackable CCPs as, per
    process, the last checkpoint not causally preceded by the last stable
    checkpoint of any faulty process.

    Three computations are provided:
    - {!lemma1}: directly from the lemma, over trace ground truth: per
      process, the least [Ccp.first_preceded] of a faulty [s_last], minus one;
    - {!by_max_consistent}: from Definition 5, as the greatest consistent
      global checkpoint below the faulty bound (tests cross-check the two);
    - {!from_snapshots}: the same over stored dependency vectors, with
      {!Rdt_gc.Global_gc.first_reaching}, which the recovery manager uses. *)

val lemma1 : Rdt_ccp.Ccp.t -> faulty:int list -> Rdt_ccp.Consistency.global
(** [R_F] per Lemma 1.  [faulty] must be non-empty and name valid
    processes. *)

val by_max_consistent :
  Rdt_ccp.Ccp.t -> faulty:int list -> Rdt_ccp.Consistency.global
(** [R_F] per Definition 5, via rollback-propagation from the bound that
    caps faulty processes at their last stable checkpoint.
    @raise Failure if no consistent global checkpoint exists below the
    bound (cannot happen on well-formed CCPs). *)

val from_snapshots :
  Rdt_gc.Global_gc.snapshot array -> faulty:int list -> int array
(** [R_F] computed from per-process snapshots of stored DVs (Equation 2),
    as the centralized recovery manager does at run time.  Entry [i] is a
    general checkpoint index; it equals [last_index + 1] (the volatile
    checkpoint) when process [i] need not roll back.  Requires RDT and
    that no non-obsolete checkpoint is missing from the snapshots.
    @raise Invalid_argument if some process has no admissible one. *)

