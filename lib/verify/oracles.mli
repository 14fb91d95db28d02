(** The oracle battery: the paper's guarantees, checked in one place.

    Each check recomputes ground truth through machinery that is
    independent of the code under test: the omniscient {!Rdt_gc.Oracle}
    and {!Rdt_gc.Global_gc} closed forms evaluate Theorems 1/2 on the CCP
    and snapshots, {!Rdt_recovery.Recovery_line.lemma1} derives recovery
    lines from trace vector clocks (not the protocols' dependency
    vectors), and the {!Rdt_ccp.Zigzag} / {!Rdt_ccp.Rdt_check} analyzers
    validate the communication structure itself.

    {b One battery, three users.}  A check reads a system through a
    process-stack accessor [~stack] (pid → {!Rdt_recovery.Process_stack.t})
    and its ground-truth CCP, so every driver passes the same thing:
    - the fuzz harness ({!Harness}, and through it {!Fuzz} and the
      live-cluster checker) passes [Script.stack] after every op;
    - the tier-1 tests' [Helpers.audit_*] pass [Runner.stack] and fail on
      the first violation;
    - the experiments E3 and E6 ([bench/exp_eval.ml]) pass [Runner.stack]
      and print whether the list is empty.
    The fuzzer's [--mutate-lgc] self-check and the tier-1 Runner mutation
    test both prove that this battery catches an over-collecting
    collector.

    {b Comparison point.}  All state oracles compare at {e post-event
    quiescence}: after an operation and every middleware/collector hook it
    triggers have completed.  Mid-event the store legitimately holds
    [n + 1] checkpoints — {!Rdt_gc.Rdt_lgc.on_checkpoint_stored} runs
    [release(me)] only after the new checkpoint is in stable storage — and
    the UC array may be half-updated, so mid-event states are bounded
    ([peak <= n + 1]) but not compared for equality.  See DESIGN.md §11
    and the pinning test in [test/test_rdt_lgc.ml]. *)

type violation = { oracle : string; op : int; detail : string }
(** [oracle] names the failed check ("safety", "optimality", "bound",
    "invariant", "line", "zigzag", "rdt", "recovery-line", "durability",
    "harness"); [op] is the index of the scenario op after which it was
    detected, [-1] when the check ran outside a scenario. *)

val pp_violation : Format.formatter -> violation -> unit
val int_array_eq : int array -> int array -> bool

type stack = int -> Rdt_recovery.Process_stack.t
(** How a check reaches each process's store, middleware and collector. *)

(** {2 The checks}

    Each returns every violation it finds, in pid order; [[]] means the
    guarantee holds.  [n] is [Ccp.n ccp]. *)

val safety : stack:stack -> ccp:Rdt_ccp.Ccp.t -> op:int -> violation list
(** Theorem 4: every checkpoint {!Rdt_gc.Oracle} still needs is
    retained. *)

val optimality :
  stack:stack -> ccp:Rdt_ccp.Ccp.t -> exact:bool -> op:int -> violation list
(** Theorem 5: nothing collectable by the Theorem-1 closed form over the
    processes' snapshots is still stored.  [exact] also demands set
    equality, which is only valid while no recovery session has injected
    global knowledge. *)

val bound : stack:stack -> ccp:Rdt_ccp.Ccp.t -> op:int -> violation list
(** Section 4.5: at most [n] checkpoints retained per process, and a peak
    of at most [n + 1]. *)

val invariant : stack:stack -> ccp:Rdt_ccp.Ccp.t -> op:int -> violation list
(** Theorem 3: every collector's UC array satisfies Equation 4 against
    CCP ground truth: [UC.(f)] of [p_i] references exactly
    [Oracle.witness ccp ~pid:i ~f] whenever that index is stable.
    Processes without a collector are skipped. *)

val rdt : ccp:Rdt_ccp.Ccp.t -> op:int -> violation list
(** Definition 4: the execution is RD-trackable (first violation only). *)

(** {2 Batteries} *)

val quiescent :
  stack:stack -> ccp:Rdt_ccp.Ccp.t -> exact:bool -> op:int -> violation list
(** The cheap checks the harness runs after every op: {!safety},
    {!optimality}, {!bound} and {!invariant}, in that order. *)

val deep : stack:stack -> ccp:Rdt_ccp.Ccp.t -> op:int -> violation list
(** Expensive checks run at crash points and end of run: every
    single-failure Lemma-1 recovery line is consistent and fully retained,
    the zigzag analyzer finds no useless checkpoint, and {!rdt}. *)

val crash :
  ccp_before:Rdt_ccp.Ccp.t ->
  report:Rdt_recovery.Session.report ->
  op:int ->
  violation list
(** Differential on a recovery session: the line the session computed
    from Equation-2 snapshots must equal the Lemma-1 line derived from
    the pre-crash CCP's vector clocks, and be consistent. *)
