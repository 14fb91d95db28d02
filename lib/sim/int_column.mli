(** Growable column of unboxed [int]s for append-mostly logs (the DV
    archive's descriptors and cells; the trace packs its logs into bytes
    instead).

    Entries live in chunks of 4096 behind a directory, so a push never
    copies what is already stored and a column holds at most one chunk
    of slack.  Chunk 0 alone starts at 4 entries and doubles up to the
    chunk size, so short columns stay small: creating one allocates
    nothing, and an archive that holds a few entries per process
    touches little memory.  Writes store an immediate into an
    [int array]: no write barrier, no boxing.  Full chunks are larger
    than the minor heap's object limit and go straight to the major
    heap. *)

type t

val create : unit -> t
val length : t -> int

val get : t -> int -> int
(** @raise Invalid_argument unless [0 <= i < length]. *)

val push : t -> int -> unit

val truncate : t -> int -> unit
(** [truncate c len] drops entries so that [length c = len] (no-op when
    already shorter) and frees whole chunks past the new end.
    @raise Invalid_argument if [len < 0]. *)
