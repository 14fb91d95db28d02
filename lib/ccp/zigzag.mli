(** Zigzag paths (Netzer & Xu; paper Definition 3).

    A sequence of messages [m1..mk] is a zigzag path from [c^alpha_a] to
    [c^beta_b] iff (i) [p_a] sends [m1] after [c^alpha_a]; (ii) whenever
    [m_i] is received by [p_c], [m_(i+1)] is sent by [p_c] in the same or a
    later checkpoint interval; (iii) [p_b] receives [mk] before [c^beta_b].
    The path is causal (a C-path) when each receipt locally precedes the
    next send; otherwise it is a non-causal zigzag (Z-path).

    Reachability is computed by a message-graph BFS: from a message
    received by [p_c] in interval [gamma], every message sent by [p_c] in
    an interval [>= gamma] is reachable.  One BFS from a source checkpoint
    yields, for every process, the minimum interval in which a zigzag path
    can land ({!reach}), answering all targets at once.  {!sweep} runs
    that BFS from every checkpoint after sorting the messages once; it is
    the one pass behind {!useless} and {!Rdt_check}, so a crash point's
    Z-cycle and RDT checks share it. *)

type verdict =
  | Causal_path  (** a C-path: every hop is locally ordered receive-then-send *)
  | Non_causal_zigzag  (** a valid zigzag path that is not causal *)
  | Not_a_path  (** the sequence violates Definition 3 *)

val reach : Ccp.t -> src:Ccp.ckpt -> int array
(** [reach ccp ~src] returns an array [r] such that [r.(b)] is the minimum
    [recv_interval] over messages reachable by a zigzag path starting after
    [src] and received by process [b] ([max_int] if none).  A zigzag path
    [src ~~> c^beta_b] exists iff [r.(b) <= beta]. *)

val sweep : Ccp.t -> (Ccp.ckpt * int array) Seq.t
(** Every checkpoint with its {!reach}, in {!Ccp.checkpoints} order.  The
    messages are sorted once per call; each element runs one BFS when the
    sequence reaches it, so a consumer that stops early saves the rest.
    It is a snapshot of the CCP at the call. *)

val path_exists : Ccp.t -> Ccp.ckpt -> Ccp.ckpt -> bool
(** [path_exists ccp c1 c2] is the paper's [c1 ~~> c2]; [c ~~> c] is a
    zigzag cycle. *)

val useless : Ccp.t -> Ccp.ckpt list
(** Checkpoints involved in a zigzag cycle, in {!Ccp.checkpoints} order;
    such checkpoints cannot be part of any consistent global checkpoint.
    One {!sweep}. *)

val classify_sequence :
  Ccp.t -> from_:Ccp.ckpt -> to_:Ccp.ckpt -> int list -> verdict
(** Judge an explicit message-id sequence against Definition 3 (used to
    reproduce the path classifications of the paper's Figure 1). *)
