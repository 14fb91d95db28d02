(** Differential oracles for the fuzzer.

    Each check recomputes ground truth through machinery that is
    independent of the code under test: the omniscient {!Rdt_gc.Oracle}
    and {!Rdt_gc.Global_gc} closed forms evaluate Theorems 1/2 on the CCP
    and snapshots, {!Rdt_recovery.Recovery_line.lemma1} derives recovery
    lines from trace vector clocks (not the protocols' dependency
    vectors), and the {!Rdt_ccp.Zigzag} / {!Rdt_ccp.Rdt_check} analyzers
    validate the communication structure itself.

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
    detected. *)

val pp_violation : Format.formatter -> violation -> unit
val int_array_eq : int array -> int array -> bool

val quiescent :
  script:Rdt_scenarios.Script.t ->
  ccp:Rdt_ccp.Ccp.t ->
  exact:bool ->
  op:int ->
  violation list
(** Cheap checks run after every op: safety (Theorem 4, vs
    {!Rdt_gc.Oracle}), optimality (Theorem 5, vs the Theorem-1 closed
    form; [exact] demands set equality and is only valid while no recovery
    session has injected global knowledge), the n / n+1 retention bound,
    and the Equation-4 invariant against CCP ground truth. *)

val deep :
  script:Rdt_scenarios.Script.t ->
  ccp:Rdt_ccp.Ccp.t ->
  op:int ->
  violation list
(** Expensive checks run at crash points and end of run: every
    single-failure Lemma-1 recovery line is consistent and fully retained,
    the zigzag analyzer finds no useless checkpoint, and the execution is
    RD-trackable. *)

val crash :
  ccp_before:Rdt_ccp.Ccp.t ->
  report:Rdt_recovery.Session.report ->
  op:int ->
  violation list
(** Differential on a recovery session: the line the session computed
    from Equation-2 snapshots must equal the Lemma-1 line derived from
    the pre-crash CCP's vector clocks, and be consistent. *)
