(** Randomized fuzzing scenarios.

    A scenario is a deterministic, seed-derived description of one whole
    execution: system size, protocol, recovery-knowledge mode, an explicit
    op list (sends with stable ids, deliveries, message losses, basic
    checkpoints, crash–recovery sessions), optionally a durable
    log-structured store per process and one injected storage fault.

    Generation has two modes, chosen by seed bits: {e direct} (the op list
    itself is random — delay and reordering come from how long send ids
    linger undelivered, losses and multi-process crashes are explicit) and
    {e simulated} (a random discrete-event simulation is run and its trace
    events are transcribed into ops through the {!Rdt_ccp.Trace.on_event}
    tap — real workload patterns and network behaviour donate the
    communication structure).

    Scenarios serialize to a line-oriented corpus format. *)

type op = Rdt_scenarios.Script.op =
  | Checkpoint of int
  | Send of { id : int; src : int; dst : int }
  | Deliver of int
  | Drop of int
  | Crash of int list
(** {!Rdt_scenarios.Script}'s op language: the harness replays a scenario
    by applying its ops there one at a time.  Send ids are
    scenario-stable, so shrinking can remove ops without renumbering. *)

type store_fault = {
  fault_pid : int;  (** whose store *)
  fault_op : int;  (** crash at this store mutation (1-based) *)
  fault_kind : Rdt_store.Fault.kind;
}

type t = {
  seed : int;  (** generator sub-seed (0 for hand-built scenarios) *)
  n : int;
  protocol : Rdt_protocols.Protocol.t;  (** always an RDT protocol *)
  knowledge : Rdt_recovery.Session.knowledge;
  durable : bool;  (** run every store on a {!Rdt_store.Log_store} *)
  store_fault : store_fault option;  (** only meaningful when [durable] *)
  ops : op list;
}

val generate : seed:int -> max_procs:int -> unit -> t
(** Deterministic: equal arguments yield equal scenarios. *)

val normalize : t -> t
(** Statically restore well-formedness: drop deliveries/losses of
    messages not in flight at that point (never sent, already delivered
    or dropped, or flushed by an earlier crash), duplicate send ids,
    out-of-range pids, empty faulty sets.  Shrinking removes ops blindly
    and normalizes the result; the harness only runs normalized
    scenarios. *)

val remove_process : t -> int -> t option
(** Shrinking step: erase one process (drop its ops, renumber the rest),
    [None] when fewer than two processes would remain. *)

val op_count : t -> int

val equal : t -> t -> bool
(** Equal {!to_string} texts: the corpus format prints every field
    (protocols by id). *)

val to_string : t -> string
(** Corpus format, the text {!save} writes. *)

val save : t -> string -> unit
val load : string -> (t, string) result
(** Parses and {!normalize}s.  [Error] for a file that cannot be read, a
    line that does not parse, or a protocol that does not guarantee
    RDT. *)

val pp : Format.formatter -> t -> unit
(** One-line summary (seed, size, protocol, op count). *)

val pp_op : Format.formatter -> op -> unit
