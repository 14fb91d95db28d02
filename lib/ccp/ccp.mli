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

val generation : t -> int
(** Rebuild stamp.  A CCP built by {!of_trace} stays at generation 0; a
    CCP maintained by {!Incremental} bumps its generation every time a
    trace truncation (rollback) forces an in-place rebuild.  Derived
    caches keyed on the message prefix ({!Zigzag.analyzer}) compare this
    to know when their indexes are stale rather than merely behind. *)

val last_stable : t -> int -> int
(** [last_s(i)]: index of the last stable checkpoint of process [i]. *)

val volatile_index : t -> int -> int
(** [last_stable t i + 1]. *)

val volatile : t -> int -> ckpt
(** The volatile checkpoint [v_i]. *)

val last_stable_ckpt : t -> int -> ckpt
(** [s^last_i]. *)

val mem : t -> ckpt -> bool
(** Does this general checkpoint exist in the CCP? *)

val is_stable : t -> ckpt -> bool

val checkpoints : t -> ckpt list
(** Every general checkpoint (stable and volatile), process by process. *)

val stable_checkpoints : t -> ckpt list

val messages : t -> message array
(** Delivered messages only, in trace order (a fresh copy; prefer
    {!message_count}/{!message_at} on hot paths). *)

val message_count : t -> int
val message_at : t -> int -> message
(** Delivered messages in trace order, without copying.  For a CCP behind
    {!Incremental}, the prefix [0 .. message_count - 1] only ever grows
    between generation bumps — the property the incremental zigzag
    analyzer relies on. *)

val vc : t -> ckpt -> Rdt_causality.Vector_clock.t
(** Vector clock of the checkpoint event ([v_i]: the process's final
    clock).  Do not mutate. *)

val vc_entry : t -> ckpt -> int -> int
(** [vc_entry t c j = Vector_clock.get (vc t c) j] — the single clock
    entry Equation-2-style precedence tests need; {!Oracle} uses it to
    answer all witness queries of one sweep from [2n] preloaded entries. *)

val precedes : t -> ckpt -> ckpt -> bool
(** Causal precedence [c1 -> c2] between checkpoint events (Definition 1).
    Volatile checkpoints precede nothing; everything a process did
    precedes its own volatile checkpoint. *)

val consistent_pair : t -> ckpt -> ckpt -> bool
(** Neither precedes the other (Section 2.2). *)

val pp_ckpt : Format.formatter -> ckpt -> unit
val pp : Format.formatter -> t -> unit
(** Multi-line summary (per-process checkpoint counts and message count). *)

(** Incremental CCP maintenance.

    [of_trace] costs O(trace); sampling-time analyses (the runner's oracle
    instrumentation, invariant audits on every sample) that rebuilt the
    CCP at each sample point were therefore quadratic in trace length.
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
