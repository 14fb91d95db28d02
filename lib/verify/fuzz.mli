(** Fuzzing campaigns: one driver, one arm per system under test.

    A campaign derives one sub-seed per run from the root seed
    (splitmix64), generates a {!Scenario}, has the {e arm} attach what
    it runs with the scenario and run it to a verdict, and on failure
    delta-debugs a minimal reproducer ({!Shrink}).  With a corpus
    directory, previously saved scenarios ([*.scn]) are replayed first
    as regressions, and new failures are written back as
    [seed-<hex>.scn] (original) and [seed-<hex>.min.scn] (shrunk), each
    with the arm's extra reproducer files.

    Two arms exist: {!harness} (the {!Harness} oracles, in-process) and
    [Rdt_live.Live_fuzz.arm] (whole clusters under a nemesis fault
    schedule, black-box checked).

    Everything the driver does — generation, shrinking, every line
    passed to [log] — is a deterministic function of the arguments and
    of the arm's verdicts, so a deterministic arm gives byte-identical
    output for equal seeds. *)

type outcome = (Oracles.violation list, string) result
(** One run's verdict: its violations ([Ok []] passes), or [Error msg]
    when the run itself failed before a verdict (a live cluster's
    coordinator timeout or node crash loop). *)

type 'x replay =
  | Replay of Scenario.t * 'x  (** run it *)
  | Skip of string  (** not replayable by this arm: logged, not counted *)
  | Broken of string  (** logged as the file's verdict, counted as failed *)

type 'x arm = {
  label : string;  (** summary-line prefix *)
  attach : seed:int -> Scenario.t -> Scenario.t * 'x;
      (** what runs with a generated scenario (from the run's sub-seed);
          may also adjust the scenario *)
  describe : 'x -> string;
      (** appended to the scenario in the per-run log line *)
  run : 'x -> Scenario.t -> outcome;
  shrink : 'x -> oracle:string -> Scenario.t -> Scenario.t;
      (** minimize a scenario that violated [oracle] *)
  corpus :
    (dir:string -> string -> (Scenario.t, string) result -> 'x replay) option;
      (** how a corpus file (name, load result) replays; [None] skips
          corpus replay altogether *)
  reproducer_files : 'x -> shrunk:bool -> Scenario.t -> (string * string) list;
      (** extra [(extension, contents)] files written next to the saved
          original ([shrunk = false]) or shrunk scenario *)
}

type failure = {
  run : int;
  sub_seed : int;  (** regenerates the scenario and what the arm attached *)
  scenario : Scenario.t;
  violation : Oracles.violation;
      (** the first violation of the run; oracle ["live-run"] means the
          run itself failed *)
  shrunk : Scenario.t option;
}

type report = {
  runs : int;
  failures : failure list;
  corpus_replayed : int;
  corpus_failed : int;
}

val passed : report -> bool
(** No generated-run failures and no corpus regressions. *)

val verdict : outcome -> string
(** The log form: [ok], [VIOLATION(oracle@op)] or [RUN-FAILED(msg)]. *)

val fails_with : oracle:string -> outcome -> bool
(** Does the outcome still exhibit a failure of [oracle]?  The shrink
    check. *)

val harness : ?mutate_lgc:bool -> ?scratch_dir:string -> unit -> unit arm
(** Runs each scenario through {!Harness.run}, shrinks by re-running
    it, replays every corpus file, and saves each shrunk reproducer
    with a standalone OCaml program ([seed-<hex>.ml], over
    {!Rdt_scenarios.Script}).  [mutate_lgc] is the self-check
    configuration: every collector over-collects via
    {!Rdt_gc.Rdt_lgc.set_test_overcollect}, and the campaign is expected
    to catch it. *)

val campaign :
  ?shrink:bool ->
  ?corpus:string ->
  ?log:(string -> unit) ->
  ?shards:int ->
  seed:int ->
  runs:int ->
  max_procs:int ->
  'x arm ->
  report
(** [shrink] defaults to [true].  [shards] (default 1) is passed to
    {!Scenario.generate}: simulated-mode scenarios run their donor
    simulations on that many engine shards, and generated scenarios and
    verdicts are identical for every value (shard-count invariance), so
    a multi-shard campaign doubles as a parallel-engine smoke test. *)
