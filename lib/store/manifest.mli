(** Store manifest: segment bookkeeping and cumulative counters.

    The manifest is written atomically (temp file + rename) on every
    segment roll, compaction and close.  It is deliberately *not* needed
    for correctness: replay discovers segments by directory scan and
    orders records by LSN, so a crash between a segment operation and the
    manifest rewrite loses nothing.  Recovery rebuilds the segment list
    from the directory and carries the counters over when the manifest is
    readable (its CRC line rejects partial writes). *)

type t = {
  segments : int list;  (** segment ids, ascending *)
  compactions : int;  (** cumulative compaction runs over the store's life *)
  bytes_reclaimed : int;  (** cumulative bytes deleted by compaction *)
  appended_records : int;  (** cumulative records ever appended *)
}

val write : dir:string -> t -> unit

val read : dir:string -> t option
(** [None] when missing, torn or corrupt — callers fall back to {!empty}
    plus a directory scan. *)
