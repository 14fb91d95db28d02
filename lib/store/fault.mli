(** Deterministic storage fault injection.

    A fault plan arms one injected crash at a chosen store operation
    (checkpoint appends and tombstone appends each count as one op).  The
    three kinds model the classic durability hazards a log-structured
    store must survive:

    - {!Short_write}: the batch being flushed reaches the disk only
      partially — a torn record tail that the CRC scan must drop;
    - {!Crash_before_sync}: everything written since the last [fsync] is
      lost (the page cache never made it to the platter) — recovery must
      fall back to the synced prefix;
    - {!Bit_flip}: a bit of an already-written record is silently
      corrupted before the crash — the CRC scan must reject that record
      without aborting recovery.

    All randomness (which byte tears, which bit flips) flows through the
    simulator's {!Rdt_sim.Prng}, so a fault schedule is a pure function of
    its seed and crash-recovery tests replay exactly. *)

type kind = Short_write | Crash_before_sync | Bit_flip

exception Injected_crash of { op : int; kind : kind }
(** Raised by the store when the armed fault fires.  The store instance is
    unusable afterwards; reopen the directory to recover. *)

type t

val none : t
(** No fault armed (the production path). *)

val at_op : op:int -> kind:kind -> rng:Rdt_sim.Prng.t -> t
(** Arm [kind] to fire at the [op]-th store operation (1-based). *)

val of_seed : seed:int -> max_op:int -> t
[@@lint.reference "fault seam: seeded crash plans for the store tests"]
(** Derive a whole plan — kind and firing op in [1, max_op] — from a seed
    (the seeded fault schedules of the property tests). *)

val kind_name : kind -> string

(* Used by the store internals: *)

val tick : t -> (int * kind * Rdt_sim.Prng.t) option
(** Count one store operation; [Some (op, kind, rng)] when the armed fault
    fires now (the plan disarms itself).  [rng] drives the fault's own
    random choices. *)
