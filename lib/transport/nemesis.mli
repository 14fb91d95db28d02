(** Deterministic fault injection at the transport seam.

    [wrap cfg inner] decorates any {!Transport.t} with a nemesis that
    drops, delays, duplicates and corrupts outbound frames according to
    a fault schedule that is a {e pure function} of [(cfg, frame)]: the
    decision for a frame depends only on the config (seed included), the
    directed link it travels, the frame's class and content key, and how
    many times that exact frame has been transmitted — never on wall
    time, hash order, or allocation order.  Two runs with the same
    config and the same frame flow therefore produce byte-identical
    fault schedules ({!schedule}), which is what makes every live
    failure replayable from its seed.

    Fault semantics, chosen so a hardened cluster always terminates:
    - {b Partitions} are directed per-link windows over the link's
      frame-key ordinals.  A partitioned control frame is dropped, but
      only for its first [pt_attempts] transmissions — retransmissions
      beyond that punch through, modelling a heal, so bounded
      retry always converges.  Application frames are never dropped
      (the staged-delivery protocol sends them exactly once and cannot
      re-request them): a partition {e delays} them instead.
    - {b Drop} (stochastic) likewise applies only to control frames and
      only to a frame's first transmission; retransmissions pass.
    - {b Delay} holds the frame for a bounded duration via the inner
      transport's timers, releasing it out of band — bounded reorder.
    - {b Duplicate} sends the frame twice back-to-back.
    - {b Corrupt} writes a garbled copy of the encoded frame ({!garble})
      on the raw socket {e before} the real frame: receivers must surface
      a {!Wire} decode error and resynchronize, never accept the bytes,
      and the run's semantics are otherwise unchanged.  A no-op under
      the simulator backend, whose frames travel unencoded.

    [Ident] preambles are exempt (they are the link mapping itself). *)

module Wire = Wire

(** A directed partition window on link [pt_from -> pt_to]. *)
type partition = {
  pt_from : int;
  pt_to : int;  (** endpoints; {!Transport.coordinator_id} allowed *)
  pt_start : int;  (** first affected frame-key ordinal on the link *)
  pt_len : int;  (** number of consecutive ordinals affected *)
  pt_attempts : int;
      (** transmissions suppressed per frame key before punch-through;
          must stay below the coordinator's retry budget *)
}

type config = {
  seed : int;
  drop_p : float;  (** control-frame first-transmission drop probability *)
  delay_p : float;
  max_delay : float;  (** delays are uniform in [(0, max_delay]] seconds *)
  dup_p : float;
  corrupt_p : float;
  partitions : partition list;
}

val default : config
(** All probabilities zero, no partitions: a transparent wrapper. *)

val gen : seed:int -> n:int -> config
(** A random-but-reproducible config for an [n]-node cluster: moderate
    fault rates, small delays, up to two partition windows.  Pure in
    [(seed, n)]. *)

val to_string : config -> string
(** One-line machine-readable form ([nms1 ...]); floats rendered as hex
    so {!of_string} roundtrips exactly. *)

val of_string : string -> (config, string) result
val pp : Format.formatter -> config -> unit

(** {2 Corruption} *)

type style =
  | Flip_payload  (** flip a payload bit: CRC mismatch *)
  | Forge_tag  (** valid header + CRC over an unknown tag byte *)
  | Trailing  (** valid CRC over the payload plus a trailing byte *)

val garble : style -> Bytes.t -> Bytes.t
[@@lint.reference "fault seam: the wire corruptions, applied alone"]
(** [garble style encoded] returns a corrupted variant of an encoded
    frame.  Every style keeps the length prefix intact and within
    bounds, so a receiver can always resynchronize at the next frame;
    decoding the result must fail with, respectively, [Crc_mismatch],
    [Bad_tag], [Malformed]. *)

(** {2 The decorator} *)

type stats = {
  mutable st_passed : int;
  mutable st_dropped : int;
  mutable st_delayed : int;
  mutable st_duplicated : int;
  mutable st_corrupted : int;
}

type t

val wrap : config -> Transport.t -> t * Transport.t
(** Decorate [inner].  The returned transport is [inner] with [send]
    and [set_handler] replaced; everything else passes through.  The
    handle gives access to {!stats}, {!schedule} and {!flush_held}.
    Timer ids at or above [0x40000000] are reserved for the nemesis's
    delayed-frame releases; owners of a wrapped transport must keep
    their own timer ids below it. *)

val stats : t -> stats
[@@lint.reference "fault seam: what a nemesis did, for the tests' assertions"]

val schedule : t -> string list
[@@lint.reference "fault seam: the schedule a nemesis was built from"]
(** Chronological log of every per-frame decision (passes included) —
    the replayability witness: identical [(config, frame flow)] yields
    an identical list. *)

val flush_held : t -> unit
(** Discard frames currently held for delayed release.  In-process
    cluster harnesses call this when they kill the wrapped endpoint: a
    real process's held frames die with it, and the simulator must
    match that. *)
