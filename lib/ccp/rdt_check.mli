(** Rollback-Dependency Trackability checker (paper Definition 4).

    A CCP is RD-trackable iff for any two checkpoints [c1], [c2]:
    [c1 ~~> c2] (zigzag path) implies [c1 -> c2] (causal precedence).
    Equivalently, every Z-path is doubled by a C-path and no checkpoint is
    useless.

    The checker is exhaustive — one zigzag BFS per source checkpoint,
    whose per-process landing index is compared with the source's causal
    frontier ({!Ccp.first_preceded}) — and intended for validating
    executions produced by the protocols (property tests run it on every
    randomly generated run). *)

type violation = {
  source : Ccp.ckpt;
  target : Ccp.ckpt;
}
(** A pair with a zigzag path but no causal precedence. *)

val violations : ?limit:int -> Ccp.t -> violation list
(** All (or the first [limit]) RDT violations of the CCP, ordered by
    source, then target, each process by process and index by index. *)

val holds : Ccp.t -> bool
(** [holds ccp] iff the CCP satisfies RDT. *)

val pp_violation : Format.formatter -> violation -> unit
