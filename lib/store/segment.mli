(** Segment files: the append-only units of the log-structured store.

    A segment is a magic header followed by frames, each
    [u32 length | u32 CRC-32 | payload] ({!Record} encodes the payload).
    Segments are created once, appended to while active, sealed, and only
    ever deleted whole (by compaction); nothing rewrites in place.

    The writer stages frames in one growable byte buffer that it keeps
    across flushes: [append] encodes a record straight into it behind a
    reserved frame header, checksums those bytes in place and fills the
    header in, so a record is written once and never copied.  Batching is
    the store's call: [flush] issues one [write] of the staged bytes from
    that same buffer, [sync] additionally [fsync]s.  The three [crash_*]
    operations implement the fault model of {!Fault} — they leave the
    file exactly as the modeled crash would (torn batch prefix / unsynced
    data rolled back / flipped bit) and close the descriptor.

    The scanner replays a segment tolerantly: a frame whose length field
    is insane or runs past end-of-file ends the scan of that segment (a
    torn tail); a frame whose CRC or decoding fails is counted dropped and
    skipped, and the scan continues — one corrupt record never discards
    its neighbours. *)

type writer

val create_writer : ?reuse:writer -> path:string -> unit -> writer
(** Create (truncating) a fresh segment file.  The magic header is
    staged like any payload, so a crash before the first flush leaves an
    empty file, which scans as zero records.  [reuse] hands over the
    staging buffer of a closed writer (raises [Invalid_argument] if it is
    still open), so a store rolling through segments grows one buffer
    once instead of one per segment. *)

val frame_length : Record.t -> int
(** The record's on-disk footprint, frame header included.  Raises
    [Invalid_argument] if the record cannot be framed: a field
    {!Record.encoded_length} rejects, or a payload over the 64 MiB frame
    limit the scanner enforces (it would read back as a torn tail). *)

val append : writer -> Record.t -> int
(** Stage one framed record (no syscall) and return its
    {!frame_length}.  An unframeable record raises [Invalid_argument]
    before the buffer grows, leaving the writer unchanged. *)

val pending_records : writer -> int
val pending_bytes : writer -> int

val written_bytes : writer -> int
(** Bytes pushed to the file so far (buffered bytes excluded). *)

val flush : writer -> unit
(** Write the pending buffer (one [write] per batch). *)

val sync : writer -> unit
(** [flush] then [fsync]. *)

val close : writer -> unit
(** Flush, fsync, close. *)

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
