(** Segment files: the append-only units of the log-structured store.

    A segment is a magic header followed by frames, each
    [u32 length | u32 CRC-32 | payload] ({!Record} encodes the payload).
    Segments are created once, appended to while active, sealed, and only
    ever deleted whole (by compaction); nothing rewrites in place.

    The writer buffers frames ([append]) and hands batching to the store:
    [flush] issues one [write] for everything pending, [sync] additionally
    [fsync]s.  The three [crash_*] operations implement the fault model of
    {!Fault} — they leave the file exactly as the modeled crash would
    (torn batch prefix / unsynced data rolled back / flipped bit) and
    close the descriptor.

    The scanner replays a segment tolerantly: a frame whose length field
    is insane or runs past end-of-file ends the scan of that segment (a
    torn tail); a frame whose CRC or decoding fails is counted dropped and
    skipped, and the scan continues — one corrupt record never discards
    its neighbours. *)

type writer

val create_writer : path:string -> writer
(** Create (truncating) a fresh segment file.  The magic header is
    buffered like any payload, so a crash before the first flush leaves an
    empty file, which scans as zero records. *)

val path : writer -> string

val append : writer -> Bytes.t -> unit
(** Buffer one framed record (no syscall). *)

val pending_records : writer -> int
val pending_bytes : writer -> int

val written_bytes : writer -> int
(** Bytes pushed to the file so far (buffered bytes excluded). *)

val flush : writer -> unit
(** Write the pending buffer (one [write] per batch). *)

val sync : writer -> unit
(** [flush] then [fsync]. *)

val close : ?sync:bool -> writer -> unit
(** Flush, optionally fsync (default [true]), close. *)

(* Crash mechanics, driven by {!Log_store} when a fault fires: *)

val crash_short_write : writer -> rng:Rdt_sim.Prng.t -> unit
(** Persist only a random strict prefix of the pending buffer, then
    abandon the writer. *)

val crash_drop_unsynced : writer -> unit
(** Roll the file back to the last synced offset (the page cache never
    reached the disk), then abandon the writer. *)

val crash_bit_flip : writer -> rng:Rdt_sim.Prng.t -> unit
(** Flush pending data, flip one random bit of the record region, then
    abandon the writer. *)

(* Reading back: *)

type scan_stats = {
  records : int;  (** frames decoded and delivered *)
  dropped : int;  (** CRC- or decode-rejected frames skipped over *)
  torn_bytes : int;  (** trailing bytes abandoned as a torn tail *)
  bad_magic : bool;  (** file unrecognizable; nothing delivered *)
}

val scan : path:string -> f:(frame_bytes:int -> Record.t -> unit) -> scan_stats
(** Replay every readable record of the segment through [f].
    [frame_bytes] is the record's on-disk footprint (frame header
    included) — what compaction accounting needs. *)

val frame_overhead : int
(** Bytes the frame adds around a payload (length prefix + CRC). *)
