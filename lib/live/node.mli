(** One live process: the full protocol stack (middleware, RDT-LGC
    collector, durable {!Rdt_store.Log_store}) behind a transport
    endpoint, driven entirely by coordinator commands and peer App
    frames.  Backend-agnostic: runs as its own OS process over TCP and
    in-process over the simulator backend.  The node records no trace:
    each command's events travel in its reply, into the coordinator's
    transcript.

    On creation the node sends [Hello] (announcing its peer port and
    whether its store directory already holds data) and waits for the
    [C_config] command, the only one it accepts before booting.  A node
    whose store held data takes the respawn path: volatile state is
    rebuilt from the recovered durable log alone (Algorithm 3), with
    message ids resuming past [C_config]'s [sends_ever]. *)

type t

val store_dir : string -> string
(** [store_dir dir] is [dir/store]: where the node whose private
    directory is [dir] keeps its durable store. *)

val create : transport:Rdt_transport.Transport.t -> dir:string -> unit -> t
(** Install the node behind [transport] and send [Hello].  [dir] is the
    node's private directory; the durable store lives in
    [store_dir dir].
    The node runs reactively through the transport's handler — callers
    that own the event loop (the simulator cluster) need nothing else.
    With [RDTGC_TEST_DUP_DELIVER=1] in the environment at creation, the
    node delivers every message twice — a test-only duplication bug the
    live-fuzz self-check must catch. *)

val main : transport:Rdt_transport.Transport.t -> dir:string -> unit -> unit
(** [create] then poll until shutdown; the body of a node OS process. *)
