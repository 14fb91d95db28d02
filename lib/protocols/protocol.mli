(** Communication-induced checkpointing protocols.

    A protocol decides, on each message receipt, whether a *forced*
    checkpoint must be taken before the message is processed, based only on
    local state and the piggybacked control information.  The protocols in
    this library:

    - {!fdas} — Fixed-Dependency-After-Send (Wang '97).  Once a process has
      sent a message in the current interval, its dependency vector must
      stay fixed: a forced checkpoint is taken before any receive that
      would bring a new dependency.  Ensures RDT.
    - {!fdi} — Fixed-Dependency-Interval (Wang '97).  The dependency vector
      must stay fixed over the whole interval once any event occurred in
      it; forces at least as often as FDAS.  Ensures RDT.
    - {!bcs} — the index-based protocol of Briatico, Ciuffoletti &
      Simoncini: processes maintain a logical checkpoint index; receiving a
      message with a higher index forces a checkpoint first.  Guarantees
      the absence of zigzag cycles (hence no useless checkpoints and no
      domino effect) but *not* full RDT — a message that does not raise
      the index can still create an untracked Z-path.  Included as the
      classic Z-cycle-free baseline; do not pair it with RDT-LGC.
    - {!cbr} — checkpoint-before-receive: a forced checkpoint before every
      receipt carrying any new dependency.  The brute-force upper baseline;
      trivially RDT.
    - {!cas} — checkpoint-after-send (Wang '97): a forced checkpoint right
      after every send, making the send the last event of its interval.
      Strictly Z-path free, hence RDT.
    - {!casbr} — checkpoint-after-send-before-receive (Wang '97): a forced
      checkpoint between every send and the next receive (taken lazily,
      before the receive).  Strictly Z-path free, hence RDT.
    - {!no_forced} — never forces.  *Not* an RDT protocol; kept to
      reproduce the domino effect of the paper's Figure 2.

    Instances are records of closures over per-process state, so different
    protocols can be selected per run without functor plumbing. *)

type instance = {
  name : string;
  need_forced : local_dv:int array -> incoming:Control.t -> bool;
      (** must a forced checkpoint be taken before processing this
          message? Consulted before the dependency vector is merged.
          [local_dv] and [incoming] are borrowed for the duration of the
          call: read them, never keep them (the caller recycles
          [incoming.dv], see {!Control}). *)
  force_after_send : bool;
      (** take a forced checkpoint immediately after every send (the
          checkpoint-after-send family) *)
  note_send : unit -> unit;  (** an application message is about to leave *)
  note_receive : incoming:Control.t -> unit;
      (** a message was processed (after merge, after any forced
          checkpoint).  [incoming] is borrowed for the duration of the
          call, as for [need_forced]: copy any scalar it needs, keep no
          reference. *)
  note_checkpoint : unit -> unit;
      (** a checkpoint (basic or forced) was just stored *)
  control_index : unit -> int;
      (** protocol-specific scalar to piggyback (BCS index; 0 elsewhere) *)
}

type t = {
  id : string;  (** short identifier used by the CLI and reports *)
  rdt : bool;  (** does the protocol guarantee RDT? *)
  make : n:int -> me:int -> instance;
}

val fdas : t
(** Fixed-Dependency-After-Send, the protocol the paper's collector
    runs under.  The others are reached by {!by_id} or {!all}. *)

val all : t list
(** Every protocol: [fdas], [fdi], [bcs], [cbr], [cas], [casbr] and
    [none] (no forced checkpoints). *)

val rdt_protocols : t list
(** Only the protocols that guarantee RDT. *)

val by_id : string -> t option
