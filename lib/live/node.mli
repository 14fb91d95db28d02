(** One live process: the full protocol stack (middleware, RDT-LGC
    collector, durable {!Rdt_store.Log_store}, local transcript) behind a
    transport endpoint, driven entirely by coordinator commands and peer
    App frames.  Backend-agnostic: runs as its own OS process over TCP and
    in-process over the simulator backend.

    On creation the node sends [Hello] (announcing its peer port and
    whether its store directory already holds data) and waits for the
    [C_config] command, the only one it accepts before booting; a
    non-empty [history] selects the respawn path, which rebuilds
    volatile state from the recovered durable log plus the coordinator's
    transcript of the node's own surviving events. *)

type t

val create : transport:Rdt_transport.Transport.t -> dir:string -> unit -> t
(** Install the node behind [transport] and send [Hello].  [dir] is the
    node's private directory; the durable store lives in [dir/store].
    The node runs reactively through the transport's handler — callers
    that own the event loop (the simulator cluster) need nothing else.
    With [RDTGC_TEST_DUP_DELIVER=1] in the environment at creation, the
    node delivers every message twice — a test-only duplication bug the
    live-fuzz self-check must catch. *)

val finished : t -> bool
(** True once [C_shutdown] was processed (store closed). *)

val main : transport:Rdt_transport.Transport.t -> dir:string -> unit -> unit
(** [create] then poll until shutdown; the body of a node OS process. *)
