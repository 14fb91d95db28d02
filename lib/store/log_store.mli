(** Log-structured, on-disk checkpoint store for one process.

    The store turns the paper's *model* of stable storage
    ({!Rdt_storage.Stable_store}) into real durability: every mutation —
    checkpoint write, RDT-LGC elimination, rollback truncation — becomes a
    CRC-framed record appended to the active segment file of a store
    directory ({!Segment}, {!Record}).  The append path batches frames
    (one [write] per [batch_records]) and fsyncs per the configured
    {!fsync_policy}.

    {b Compaction} is driven by garbage collection: each obsolescence
    notification (an [eliminate]/[truncate] flowing in from {!Rdt_gc.Rdt_lgc}
    or the coordinated collectors through the {!Rdt_storage.Stable_store}
    backend) re-evaluates the dead-byte ratio of the sealed segments; past
    the threshold, the (at most [n+1], by Theorem 3) live checkpoints
    residing in sealed segments are rewritten into one fresh segment and
    the sealed segments are deleted.  The paper's bound is what makes this
    O(n): the rewrite set can never exceed [n+1] records.

    {b Recovery} is a scan: [create] on a non-empty directory reads every
    segment, drops torn tails and CRC-rejected records, orders the
    survivors by LSN, replays stores against tombstones, rebuilds the
    manifest bookkeeping, and exposes the surviving checkpoints
    ({!recovery}) for {!Rdt_storage.Stable_store.restore} /
    [lib/recovery] to consume.  Segment file order never matters: LSNs
    are globally monotone and compaction rewrites carry fresh LSNs, so
    replay is linearizable at the compaction point.

    A {!Fault} plan injects one deterministic crash (short write, lost
    unsynced data, bit flip) somewhere in the append stream; after the
    resulting {!Fault.Injected_crash} the instance is poisoned and the
    directory must be reopened. *)

module Stable_store = Rdt_storage.Stable_store

type fsync_policy =
  | Always  (** fsync after every appended record *)
  | Every of int  (** fsync at least every [k] appended records *)
  | Never  (** only on segment seal, explicit {!sync} and {!close} *)

type config = {
  batch_records : int;  (** frames buffered per [write] syscall; 1 = none *)
  fsync : fsync_policy;
  segment_target_bytes : int;  (** seal the active segment past this size *)
  compact_min_dead_bytes : int;
      (** no compaction below this much garbage; past it, compact once half
          of the sealed bytes are dead *)
  auto_compact : bool;  (** re-evaluate on every GC notification *)
}

val default_config : config
(** batch 16, fsync every 64, 256 KiB segments, compact at 50% dead past
    4 KiB, auto-compaction on. *)

type t

val pid_dir : string -> int -> string
(** [pid_dir root pid] is [root/p<pid>]: where a multi-process run
    (the simulator's [--store-dir], the fuzz harness) keeps [pid]'s store,
    and, on a live cluster, the node's private directory that holds its
    store. *)

val create : ?config:config -> ?faults:Fault.t -> pid:int -> dir:string -> unit -> t
(** Open (creating the directory if needed) and recover whatever it
    holds.  Opening never writes: a pure stats/recovery inspection leaves
    the directory byte-identical. *)

type recovery = {
  recovered : Stable_store.entry list;  (** surviving live checkpoints, ascending *)
  records_dropped : int;  (** CRC- or decode-rejected *)
  torn_bytes : int;  (** abandoned torn-tail bytes across segments *)
}

val recovery : t -> recovery
(** What the opening scan found (empty lists/zeros for a fresh dir). *)

(* Mutations (a rollback's truncation only through {!backend}): *)

val append : t -> Stable_store.entry -> unit
val eliminate : t -> index:int -> unit

val sync : t -> unit
(** Flush and fsync the active segment. *)

val compact : t -> unit
(** Force a compaction of the sealed segments regardless of thresholds. *)

exception Compaction_crash of [ `After_seal | `After_rewrite ]
(** Raised by a compaction when a crash armed with
    {!arm_compaction_crash} fires.  Like {!Fault.Injected_crash}, the
    instance is poisoned afterwards and the directory must be reopened. *)

val arm_compaction_crash : t -> [ `After_seal | `After_rewrite ] -> unit
[@@lint.reference "fault seam: a crash inside compaction"]
(** Test hook: make the next compaction (manual {!compact} or automatic)
    crash deterministically at one of its two durability windows —
    [`After_seal]: the active segment has been sealed but no rewrite has
    happened; [`After_rewrite]: the rewrite segment is on disk but the
    superseded sealed segments have not been deleted yet.  In both cases a
    recovery scan of the directory must restore exactly the
    pre-compaction live set. *)

val close : t -> unit
(** Seal the active segment (fsync) and persist the manifest.  Idempotent;
    only writes if the store mutated since opening. *)

val backend : t -> Stable_store.backend
(** Mirror for {!Rdt_storage.Stable_store.set_backend}, installed by
    [Rdt_recovery.Process_stack]. *)

(* Observation: *)

val live_indices : t -> int list
(** Indices of the live (non-eliminated) checkpoints on disk, ascending:
    at most [n] of them ([n+1] transiently) under RDT-LGC. *)

type stats = {
  segments : int;
  live_records : int;
  live_bytes : int;  (** on-disk footprint of live checkpoint records *)
  dead_bytes : int;  (** collected records + tombstones awaiting compaction *)
  disk_bytes : int;  (** total segment bytes *)
  appended_records : int;  (** cumulative over the directory's whole life *)
  compactions : int;
  bytes_reclaimed : int;  (** cumulative segment bytes deleted *)
  syncs : int;  (** fsyncs issued by this instance *)
}

val stats : t -> stats
