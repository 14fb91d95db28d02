(** Local multi-process cluster over loopback TCP.

    Every scenario process runs as a real OS process with a private
    durable store under [root/p<pid>/store] and its output streamed to
    [root/p<pid>/node.log]; the coordinator runs in the calling process.
    Crash ops SIGKILL the victim and respawn it over the same directory,
    so recovery exercises the real durable log.  Stores and logs are
    left in place after the run for {!Checker.check} and post-mortems. *)

type backend =
  | Exec of string
      (** spawn [<exe> node --me .. --dir .. --coord-port ..]; the
          executable must route that subcommand to {!node_main} *)

val node_dir : string -> int -> string

val node_main :
  me:int ->
  dir:string ->
  coord_port:int ->
  ?nemesis:Rdt_transport.Nemesis.config ->
  unit ->
  unit
(** Body of a node process: TCP endpoint, dial the coordinator, run
    {!Node.main}.  The CLI's hidden [node] subcommand calls this;
    [nemesis] (the CLI's [--nemesis], an
    {!Rdt_transport.Nemesis.of_string} spec) wraps the endpoint so the
    node's own outbound frames are faulted. *)

val run :
  scenario:Rdt_verify.Scenario.t ->
  root:string ->
  backend:backend ->
  ?timeout:float ->
  ?nemesis:Rdt_transport.Nemesis.config ->
  ?on_nemesis:(Rdt_transport.Nemesis.t list -> unit) ->
  ?log:(string -> unit) ->
  unit ->
  (Coordinator.run_record, string) result
(** Wipe [root], spawn one process per scenario pid, drive the scenario,
    reap the processes.  When the coordinator fails — it returns [Error]
    or raises (a raising [log] included) — all processes are killed and
    reaped, and the [Error] message carries each node's log tail.

    [nemesis] wraps the coordinator endpoint in this process and is
    forwarded to every node process via [--nemesis], so each endpoint
    faults its own outbound links with the same config — held frames die
    with their process on SIGKILL for free.  [on_nemesis] only sees the
    coordinator's handle: the node wrappers live in other processes. *)
