(** Scenario execution with differential checking.

    Replays a {!Scenario.t} through the full stack — real middleware and
    protocol, RDT-LGC collectors, centralized recovery sessions and
    (for durable scenarios) per-process {!Rdt_store.Log_store} backends in
    a scratch directory — running the {!Oracles} after every op at
    post-event quiescence and stopping at the first violation.

    Durable scenarios additionally maintain a shadow of each store's live
    entry set; an injected storage fault ({!Rdt_store.Fault}) stops the
    run and holds what a recovery scan of the directory finds against the
    shadow's mutation bracket (crash consistency), and fault-free durable
    runs must recover exactly the final retained set (the epilogue
    check). *)

type stop =
  | Completed  (** every op ran (or a logic violation stopped the run) *)
  | Store_crashed of { pid : int; at_op : int }
      (** the injected storage fault fired; durability oracles ran *)

type result = {
  scenario : Scenario.t;  (** the normalized scenario that actually ran *)
  violations : Oracles.violation list;
      (** empty = passed; fail-fast, so usually a single entry *)
  stop : stop;
  script : Rdt_scenarios.Script.t option;
      (** the replayed script, for post-run inspection (trace comparison
          by the live-cluster checker); [None] only when an injected
          store fault fired during setup *)
  reports : Rdt_recovery.Session.report list;
      (** recovery-session reports, one per crash op executed *)
}

val run :
  ?mutate_lgc:bool ->
  ?scratch_dir:string ->
  ?observe:(op:int -> Rdt_scenarios.Script.t -> Oracles.violation list) ->
  Scenario.t ->
  result
(** [mutate_lgc] enables {!Rdt_gc.Rdt_lgc.set_test_overcollect} on every
    collector — the fuzzer's self-check: the run must then produce a
    violation.  [scratch_dir] overrides where durable scenarios put their
    store directories (wiped before and after use; default: a
    process-unique directory under the system temp dir).  [observe] runs
    after each op (and its oracles); any violations it returns stop the
    run like an oracle failure — the live-cluster checker compares the
    states it recorded from real processes against the replay here.
    @raise Invalid_argument on a non-RDT protocol, which only a
    hand-built scenario can hold ({!Scenario.of_string} refuses one). *)

val log_config : Rdt_store.Log_store.config
(** The store configuration harness runs use (small segments, eager
    fsync); the live runtime's nodes use the same one, so live store
    directories and replayed scratch directories age identically. *)

val set_eq : Rdt_storage.Stable_store.entry list -> Rdt_storage.Stable_store.entry list -> bool
(** Full structural comparison (index, dv, taken_at, size, payload) used
    by the durability oracles, shared with the live-cluster checker. *)

val pp_ints : Rdt_storage.Stable_store.entry list -> string
(** The entries' indices, ascending and comma-separated. *)

val rm_rf : string -> unit
(** Recursive delete, shared with the fuzz driver and tests. *)

val mkdir_p : string -> unit
