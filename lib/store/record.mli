(** Typed log records and their binary encoding.

    The store is a redo log over three record kinds: a checkpoint write
    (the full {!Rdt_storage.Stable_store.entry}: dependency vector,
    piggyback metadata — taken-at time and synthetic state digest — and a
    payload blob of [size_bytes] filler standing in for the checkpointed
    application state, so on-disk bytes track configured checkpoint
    sizes), a single-checkpoint tombstone (garbage collection), and a
    truncation tombstone (rollback).

    Every record carries the owning process id and a log sequence number
    [lsn], globally monotone across segments.  Replay sorts by [lsn], so
    segment *file* order never matters for correctness — compaction may
    rewrite surviving records into fresh segments freely
    ({!Rdt_store.Log_store}).

    Encoding is little-endian, length-independent of the host; the frame
    around it (length prefix + CRC-32) is {!Rdt_store.Segment}'s job. *)

module Stable_store = Rdt_storage.Stable_store

type t =
  | Store of { pid : int; lsn : int; entry : Stable_store.entry }
  | Eliminate of { pid : int; lsn : int; index : int }
  | Truncate_above of { pid : int; lsn : int; index : int }
      (** drop every checkpoint with index strictly greater *)

val pid : t -> int
val lsn : t -> int

val encode : t -> Bytes.t
(** Payload bytes (unframed). *)

val decode : Bytes.t -> (t, string) result
(** Inverse of {!encode}; [Error] explains the malformation.  A CRC-valid
    frame should always decode — a decode error means a foreign or
    corrupted-yet-CRC-colliding record and is counted as dropped by the
    scan. *)
