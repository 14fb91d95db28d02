(** Omniscient obsolescence oracle — Theorem 1 evaluated on the ground
    truth CCP.

    A stable checkpoint [s^gamma_i] is obsolete iff there is no process
    [p_f] with [s^last_f -> c^(gamma+1)_i] and [s^last_f -/-> s^gamma_i].
    This module evaluates that characterization using trace-derived vector
    clocks (no dependency vectors), which makes it:

    - the reference against which RDT-LGC's safety and optimality are
      property-tested, and
    - the idealized "instant global knowledge" upper baseline of the
      storage experiments (no real collector can beat it).

    Only meaningful on RD-trackable CCPs (Theorem 1's proof uses RDT).

    Precedence is upward-closed, so each [p_f] witnesses at most one
    checkpoint of [p_i]: the one just below the first checkpoint of [p_i]
    that [s^last_f] precedes ({!witness}).  The sweeps ({!obsolete},
    {!retained}) are built from these [n] lookups per process;
    {!needed_by} evaluates the theorem literally and is their
    reference. *)

val witness : Rdt_ccp.Ccp.t -> pid:int -> f:int -> int
(** [witness ccp ~pid ~f] is the index [gamma] with
    [s^last_f -> c^(gamma+1)_pid] and [s^last_f -/-> s^gamma_pid]:
    {!Rdt_ccp.Ccp.first_preceded} of [s^last_f] on [pid], minus one.
    [p_f] keeps [s^gamma_pid] from being obsolete when [gamma] is a
    stable index; a result outside [0 .. last_stable pid] (such as
    [last_stable pid + 1] when [s^last_f] precedes no checkpoint of
    [pid]) witnesses nothing.  [witness ccp ~pid ~f:pid] is
    [last_stable pid].  A stable result is the checkpoint Equation 4
    makes [UC.(f)] of [p_pid] reference. *)

val obsolete : Rdt_ccp.Ccp.t -> Rdt_ccp.Ccp.ckpt list
(** All obsolete stable checkpoints of the CCP. *)

val is_obsolete : Rdt_ccp.Ccp.t -> Rdt_ccp.Ccp.ckpt -> bool
(** Theorem 1 for one stable checkpoint.
    @raise Invalid_argument if the checkpoint is volatile or absent. *)

val retained : Rdt_ccp.Ccp.t -> pid:int -> int list
(** Indices of the non-obsolete stable checkpoints of one process —
    what an omniscient collector would keep. *)

val needed_by : Rdt_ccp.Ccp.t -> Rdt_ccp.Ccp.ckpt -> int list
[@@lint.reference "Theorem 1 by its definition: the sweeps are held to it"]
(** The processes [p_f] witnessing non-obsolescence (empty iff obsolete),
    by Theorem 1's two {!Rdt_ccp.Ccp.precedes} tests per process: the
    reference the tests hold the sweeps to.
    @raise Invalid_argument if the checkpoint is volatile or absent. *)
