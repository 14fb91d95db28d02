(** Rollback-Dependency Trackability checker (paper Definition 4).

    A CCP is RD-trackable iff for any two checkpoints [c1], [c2]:
    [c1 ~~> c2] (zigzag path) implies [c1 -> c2] (causal precedence).
    Equivalently, every Z-path is doubled by a C-path and no checkpoint is
    useless.

    The checker is exhaustive — one {!Zigzag.sweep}, whose per-process
    landing index from each source is compared with the source's causal
    frontier ({!Ccp.first_preceded}) — and intended for validating
    executions produced by the protocols (property tests run it on every
    randomly generated run).  A zigzag cycle [c ~~> c] is itself a
    violation, so {!analyze} also reads the useless checkpoints off the
    same sweep: crash-point oracles and [rdtgc analyze] pay for one. *)

type violation = {
  source : Ccp.ckpt;
  target : Ccp.ckpt;
}
(** A pair with a zigzag path but no causal precedence. *)

type analysis = {
  useless : Ccp.ckpt list;  (** {!Zigzag.useless} *)
  violations : violation list;  (** {!violations} with the same [limit] *)
}

val analyze : ?limit:int -> Ccp.t -> analysis
(** Both checks from one sweep. *)

val violations : ?limit:int -> Ccp.t -> violation list
(** All (or the first [limit]) RDT violations of the CCP, ordered by
    source, then target, each process by process and index by index. *)

val holds : Ccp.t -> bool
(** [holds ccp] iff the CCP satisfies RDT. *)

val pp_violation : Format.formatter -> violation -> unit
