(** CRC-32 (IEEE 802.3 polynomial, reflected, slicing-by-8).

    Every record frame in a segment file carries the CRC of its payload;
    the recovery scan recomputes it to reject torn or bit-flipped records
    ({!Rdt_store.Segment}).  The manifest guards its own contents the same
    way, and the live transport's [Wire] frames carry one too.  Implemented
    locally so the store has no dependency beyond the standard library. *)

val bytes : Bytes.t -> pos:int -> len:int -> int32
(** CRC-32 of [len] bytes of [b] starting at [pos], read in place.
    Raises [Invalid_argument] if the window is not inside [b]. *)

val string : string -> int32
(** CRC-32 of a whole string. *)
