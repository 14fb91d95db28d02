(** Checkpoint and Communication Patterns (paper, Section 2.2).

    A CCP is the set of checkpoints taken by all processes in a consistent
    cut plus the dependency relation created by the exchanged messages
    (excluding lost and in-transit messages).  This module builds a CCP
    from a recorded {!Trace.t} and answers causality queries between
    checkpoints using vector clocks computed over the trace — deliberately
    *not* using the protocols' dependency vectors, so the two mechanisms
    can be verified against each other.

    Indexing conventions follow the paper: process [p_i] starts by storing
    stable checkpoint [s^0_i]; checkpoint interval [I^gamma] comprises the
    events between [c^(gamma-1)] and [c^gamma]; the volatile checkpoint
    [v_i] is the general checkpoint with index [last_s(i) + 1]. *)

type ckpt = { pid : int; index : int }
(** A general checkpoint [c^index_pid].  It is stable when
    [index <= last_stable t pid] and volatile when
    [index = last_stable t pid + 1]. *)

type message = {
  id : int;
  src : int;
  send_interval : int;  (** interval of the sender when sending *)
  send_seq : int;  (** trace sequence number of the send event *)
  dst : int;
  recv_interval : int;  (** interval of the receiver when receiving *)
  recv_seq : int;  (** trace sequence number of the receive event *)
}

type t

val of_trace : Trace.t -> t
(** Builds the CCP of the cut consisting of the whole trace.
    @raise Invalid_argument on malformed traces: a receive without a
    matching send (orphan message — the sign of an inconsistent rollback),
    or non-contiguous checkpoint indices. *)

val n : t -> int

val last_stable : t -> int -> int
(** [last_s(i)]: index of the last stable checkpoint of process [i]. *)

val volatile_index : t -> int -> int
(** [last_stable t i + 1]. *)

val last_stable_ckpt : t -> int -> ckpt
(** [s^last_i]. *)

val mem : t -> ckpt -> bool
(** Does this general checkpoint exist in the CCP? *)

val is_stable : t -> ckpt -> bool

val checkpoints : t -> ckpt list
(** Every general checkpoint (stable and volatile), process by process. *)

val messages : t -> message array
(** Delivered messages only, in trace order (a fresh copy). *)

val precedes : t -> ckpt -> ckpt -> bool
(** Causal precedence [c1 -> c2] between checkpoint events (Definition 1).
    Volatile checkpoints precede nothing; everything a process did
    precedes its own volatile checkpoint. *)

val first_preceded : t -> ckpt -> pid:int -> int
(** The causal frontier of [c] on process [pid]: the smallest index [g]
    with [precedes t c c^g_pid], or [volatile_index t pid + 1] if [c]
    precedes no checkpoint of [pid].  Precedence is upward-closed —
    [c -> c^g_pid] implies [c -> c^(g+1)_pid] — so [c] precedes exactly
    the checkpoints of [pid] from this index on.  Theorem 1, the
    Equation-4 invariant, Lemma 1 and the RDT check all reduce to it.
    It is [c.index + 1] when [c] is on [pid], and "none" when [c] is
    volatile.  O(log) clock reads.
    @raise Invalid_argument if [c] or [pid] is not in the CCP. *)

val pp_ckpt : Format.formatter -> ckpt -> unit
val pp : Format.formatter -> t -> unit
(** Multi-line summary (per-process checkpoint counts and message count). *)

(** Incremental CCP maintenance.

    [of_trace] costs O(trace); analyses that query the ground truth
    throughout a run (the fuzz harness's oracles after every op, the
    tier-1 audits at every runner sample) would be quadratic in trace
    length if they rebuilt it at each query.
    An [Incremental.t] subscribes to the trace's append stream
    ({!Trace.on_event}) and extends one CCP graph in place, so {!ccp} costs
    O(events since the last call).  Rollbacks ({!Trace.on_truncate})
    retract events; they mark the builder dirty and the next {!ccp} call
    rebuilds from scratch (rollbacks are rare — crash recovery only — so
    the amortized cost stays linear).  The trace must be recording
    ({!Trace.set_recording}): a muted trace still hands over its appends
    but neither keeps them for a rebuild nor reports its truncations.

    The returned CCP is a live view: it mutates as the trace grows, and
    vector clocks obtained from it are only meaningful until the next
    append.  Analyses must query, not retain. *)
module Incremental : sig
  type ccp := t
  type t

  val of_trace : Trace.t -> t
  (** Folds the events already recorded, then subscribes to the trace.
      Create it once per trace, next to the trace itself. *)

  val ccp : t -> ccp
  (** The up-to-date CCP view.  O(new events) amortized; O(trace) right
      after a rollback.
      @raise Invalid_argument like {!of_trace} on malformed traces. *)
end
