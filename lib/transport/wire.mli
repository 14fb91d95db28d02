(** Wire format for the live runtime (DESIGN.md §14).

    Every frame is [u32 length | u32 crc32(payload) | payload], big-endian,
    with the CRC (the store's {!Rdt_store.Crc32}) covering the payload.
    Payloads are a tag byte plus fixed-width big-endian fields (ints and
    float bits as i64, counted arrays/strings).  The same frame values
    travel unencoded through the simulator backend, so the two backends
    exchange identical protocol states by construction; the encoding is
    exercised by the TCP backend and pinned by test/test_wire.ml. *)

val header_bytes : int
val max_frame_bytes : int

val max_count : int
(** Upper bound accepted for any embedded array/list/string length. *)

type error =
  | Oversized of { len : int; max : int }
      (** length prefix exceeds {!max_frame_bytes} *)
  | Bad_length of { len : int }  (** length prefix is negative garbage *)
  | Crc_mismatch of { expected : int32; actual : int32 }
  | Truncated of { wanted : int; have : int }
  | Bad_tag of { tag : int }
  | Malformed of string

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type state = {
  st_dv : int array;  (** live dependency vector *)
  st_uc : int option array;  (** RDT-LGC UC as checkpoint indices *)
  st_retained : int array;  (** retained stable indices, ascending *)
  st_app : int;  (** volatile application state *)
}
(** The per-node protocol state the checker compares against the simulator
    replay.  Deliberately excludes counters that do not survive a process
    respawn (basic/forced counts, store statistics): the determinism
    contract covers protocol state, not process-lifetime bookkeeping. *)

type tev =
  | T_ckpt of { index : int }
  | T_send of { msg_id : int; dst : int }
  | T_recv of { msg_id : int; src : int }
      (** One trace event of the reporting node, mirrored into the
          coordinator's transcript. *)

val tev_of_view : Rdt_ccp.Trace.View.t -> tev
(** The event a trace reader is looking at. *)

val record_tev : Rdt_ccp.Trace.t -> pid:int -> tev -> unit
(** Append the event to [pid]'s log of the trace. *)

type entry = Rdt_storage.Stable_store.entry

type cmd =
  | C_checkpoint
  | C_send of { dst : int }
  | C_deliver of { src : int; msg_id : int }
  | C_drop of { src : int; msg_id : int }
  | C_flush of { epoch : int }
      (** discard staged frames; [epoch] is the new message epoch *)
  | C_snapshot  (** recovery manager state query *)
  | C_rollback of { to_index : int; li : int array option }
  | C_release of { li : int array }
  | C_state
  | C_shutdown
  | C_config of {
      n : int;
      protocol : string;
      epoch : int;
      ports : int array;
      history : tev list;
          (** the node's own pre-crash trace events, for transcript and
              message-id restoration; empty on a fresh start *)
      sends_ever : int;
          (** sends the node ever performed — message ids are monotone and
              survive rollbacks, so the counter must be restored past the
              truncated history *)
    }
      (** boot the node; the only command accepted before it.  Its seq
          becomes the node's at-most-once watermark, so a delayed
          retransmission of a command sent to an earlier incarnation can
          never execute *)

type reply =
  | R_done of { events : tev list; state : state }
  | R_sent of { msg_id : int; events : tev list; state : state }
  | R_snapshot of { entries : entry list; live_dv : int array; last : int }
  | R_state of { state : state }
  | R_error of { message : string }

type frame =
  | App of { epoch : int; msg_id : int; src : int; dv : int array; index : int }
      (** an application message with its piggybacked control data
          (dependency vector + protocol control index) *)
  | Ident of { pid : int }
      (** transport-level preamble identifying an outbound connection;
          consumed by the receiving transport, never surfaced *)
  | Hello of { pid : int; port : int; recovering : bool }
      (** node registration with the coordinator *)
  | Cmd of { seq : int; now : float; cmd : cmd }
      (** [now] is the coordinator's virtual clock, mirroring the
          simulator's tick, so stored [taken_at] stamps are identical *)
  | Reply of { seq : int; reply : reply }

val encode : frame -> Bytes.t
(** Header plus payload, ready to write.
    @raise Invalid_argument if the payload exceeds {!max_frame_bytes}. *)

val encode_payload : frame -> string
(** Payload bytes only (golden tests). *)

type header = { h_len : int; h_crc : int32 }

val decode_header : Bytes.t -> pos:int -> len:int -> (header, error) result
(** Validate the 8-byte frame header found at [pos] given [len] available
    bytes.  [Truncated] here means "read more"; [Bad_length]/[Oversized]
    mean the stream is corrupt and the connection must be dropped. *)

val decode_body : header -> Bytes.t -> pos:int -> len:int -> (frame, error) result
(** Check the CRC over the [h_len] payload bytes at [pos] and parse the
    frame.  Rejects trailing garbage inside the payload. *)

val decode : Bytes.t -> (frame * int, error) result
(** One-shot: parse a complete frame from the start of [buf]; returns the
    frame and the number of bytes consumed. *)
