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

val max_dv_len : int
(** The longest dependency vector a checkpoint record holds (its length
    is a u16): 65,535.  Configurations and scenarios with more processes
    are rejected up front. *)

val lsn : t -> int

val encoded_length : t -> int
(** Length of the record's payload bytes (unframed).  This is also the
    validity check: raises [Invalid_argument] if a field cannot be encoded
    losslessly — a pid, index, DV entry or [size_bytes] outside
    [\[0, 2^32)], or a DV longer than 65,535 entries. *)

val encode_into : t -> Bytes.t -> pos:int -> unit
(** Write exactly [encoded_length r] payload bytes into [b] at [pos],
    touching nothing else of [b].  The filler is written by block copies
    (it repeats every 256 bytes).  Raises [Invalid_argument] as
    {!encoded_length} does, or if the bytes do not fit in [b]; either way
    [b] is left unchanged. *)

val decode : Bytes.t -> pos:int -> len:int -> (t, string) result
(** Inverse of {!encode_into}, reading the [len] bytes at [pos] in place;
    [Error] explains the malformation.  A CRC-valid frame should always
    decode — a decode error means a foreign or corrupted-yet-CRC-colliding
    record and is counted as dropped by the scan.  Raises
    [Invalid_argument] if the window is not inside [b]. *)
