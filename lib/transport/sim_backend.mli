(** The deterministic simulator adapted behind the transport seam.

    A cluster is one {!Rdt_sim.Engine.t} hosting [n] node endpoints plus
    the coordinator ({!Transport.coordinator_id}); frames travel as
    simulated messages over FIFO lossless channels, so a cluster run is a
    pure function of [(n, seed)].  {!Transport.poll} pumps the engine;
    [`Idle] means the simulation has no further events — a caller still
    waiting has deadlocked. *)

type cluster

val create : n:int -> seed:int -> cluster
(** The engine's default delays, FIFO and lossless: the transport models
    a connection-oriented medium. *)

val transport : cluster -> me:int -> Transport.t
(** The endpoint of node [me] (or of the coordinator for
    [me = Transport.coordinator_id]).  Call once per endpoint. *)

val kill : cluster -> pid:int -> unit
(** Simulate a process kill: the endpoint's pending and future events are
    discarded until a new handler is installed ({!Transport.set_handler}
    by the respawned node). *)
