(** Centralized recovery sessions (paper, Section 2.4 and Algorithm 3).

    The recovery manager stops the execution of non-faulty processes,
    gathers every process's stable state, computes the recovery line
    [R_F] from stored dependency vectors, and drives each process's
    rollback.  {!run} is the whole session, for every deployment: it
    talks to each process only through a {!handle}, so the simulator
    passes handles that act on in-memory middlewares ({!in_memory}) and
    the live runtime's coordinator passes handles that send commands
    over the wire.  Both therefore gather, decide and apply in the same
    order, and roll back to the identical line by construction.  In the
    simulator the session is atomic (it runs inside one engine event),
    which models the stop-world assumption; the caller is responsible
    for flushing in-transit messages around it.

    Two knowledge modes, as in the paper:
    - [`Global]: every process receives the last-interval vector [LI]
      ([LI.(j) = last_s(j) + 1] in the post-rollback CCP), so rolled-back
      processes run Algorithm 3 against Theorem 1 knowledge, and processes
      that did not roll back release outdated [UC] entries.
    - [`Causal]: no global information is disseminated (decentralized
      recovery-line calculation); rolled-back processes run Algorithm 3
      with their own DV (Theorem 2 knowledge) and the others do nothing. *)

type knowledge = [ `Global | `Causal ]

type report = {
  faulty : int list;
  line : int array;  (** the recovery line (general checkpoint indices) *)
  rolled_back : int list;  (** processes that had to roll back *)
  checkpoints_rolled_back : int;
      (** general checkpoints undone across all processes *)
}

type handle = {
  snapshot : unit -> Rdt_gc.Global_gc.snapshot;
      (** the process's reply to the manager's state query; its last
          entry is the process's last stable checkpoint *)
  rollback : to_index:int -> li:int array option -> unit;
      (** roll back to stable checkpoint [to_index], running Algorithm 3
          with [li] ([None] in [`Causal] mode) *)
  release : li:int array -> unit;
      (** release outdated [UC] entries given [li] (a process that did
          not roll back, [`Global] mode only) *)
}
(** The manager's view of one process. *)

val snapshot_of : Rdt_protocols.Middleware.t -> Rdt_gc.Global_gc.snapshot
(** One in-memory process's reply to the manager's state query. *)

val in_memory :
  release:(li:int array -> unit) -> Rdt_protocols.Middleware.t -> handle
(** A handle on an in-memory process: {!snapshot_of}, and rollbacks
    through {!Rdt_protocols.Middleware.rollback}, which fires the
    collector's [on_rollback] hook.  Wire [release] to
    {!Rdt_gc.Rdt_lgc.release_outdated}, or pass a no-op for other
    collectors. *)

val run : handle array -> faulty:int list -> knowledge:knowledge -> report
(** Run a recovery session over the processes' handles, indexed by pid:
    gather every snapshot in pid order, compute the recovery line and
    [LI], then in pid order roll back each process the line cuts and
    (in [`Global] mode) release the others. *)

val pp_report : Format.formatter -> report -> unit
