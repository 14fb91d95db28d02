(** Live-runtime fuzzing: the {!Rdt_verify.Fuzz} campaign arm that runs
    random scenarios under random nemesis fault schedules against a
    whole cluster, checked black-box.

    Each generated {!Rdt_verify.Scenario} is sanitized (always durable,
    never a store fault — the live cluster recovers real stores and has
    no hook to crash one mid-mutation) and paired with a
    {!Rdt_transport.Nemesis.gen} fault config from the same sub-seed;
    the cluster runs and the run is held against the {!Checker} oracle
    battery.  Failures are delta-debugged to a minimal scenario — on
    the simulator arm when it reproduces the failure there (fast,
    deterministic), on the live backend with a small budget otherwise —
    and saved to the corpus as [seed-<hex>.scn] + [seed-<hex>.nms] +
    [seed-<hex>.min.scn]: the seed pair is the complete reproducer.

    Corpus replay runs each committed [*.scn] under its sibling [.nms]
    schedule (a transparent nemesis when absent) and skips scenarios a
    live cluster cannot represent.

    On the {!Sim} backend every verdict is a pure function of the
    scenario and schedule, so equal seeds produce byte-identical
    campaign output. *)

type backend =
  | Sim  (** in-process {!Sim_cluster}: deterministic, fast *)
  | Live of Cluster.backend  (** real OS processes over loopback TCP *)

val run_one :
  backend:backend ->
  root:string ->
  ?timeout:float ->
  nemesis:Rdt_transport.Nemesis.config ->
  Rdt_verify.Scenario.t ->
  Rdt_verify.Fuzz.outcome
(** One cluster run + checker verdict under [root] (wiped); the
    building block tests use to replay a single [.scn]/[.nms] pair. *)

val arm :
  ?timeout:float ->
  ?mutate_deliver:bool ->
  backend:backend ->
  root:string ->
  unit ->
  Rdt_transport.Nemesis.config Rdt_verify.Fuzz.arm
(** The arm for {!Rdt_verify.Fuzz.campaign}.  [root] is the campaign's
    scratch directory (wiped now).  [timeout] bounds each live run's
    coordinator waits.  [mutate_deliver] is the self-check
    configuration: every node delivers each message twice (the arm sets
    [RDTGC_TEST_DUP_DELIVER=1] around its runs, and nodes read it when
    created), the campaign must catch it, and corpus replay is skipped
    (committed reproducers would "fail" by design). *)
