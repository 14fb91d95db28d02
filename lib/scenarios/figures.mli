(** Transcriptions of the paper's figures.

    Process identifiers are 0-based ([p1] of the paper is pid 0, etc.).
    Each builder returns the artifacts the corresponding experiment and
    tests assert against.

    - {!figure1}: the example CCP of Figure 1 — message ids for the paths
      classified in the text ([m1,m2] and [m1,m4] C-paths, [m5,m4]
      Z-path), plus a variant without [m3] that loses RDT.
    - {!figure2}: the domino-effect pattern of Figure 2 (uncoordinated
      ping-pong; every non-initial stable checkpoint useless), and the
      same interleaving pushed through a real FDAS middleware, which
      breaks the zigzag cycles with forced checkpoints.
    - {!figure4}: the RDT-LGC execution of Figure 4, driven through real
      middleware with attached collectors; reaches the paper's final
      state: [s^2_2, s^1_3, s^2_3] eliminated (paper numbering) and the
      obsolete [s^1_2] retained because [p2] lacks causal knowledge of
      [p3]'s later checkpoints.
    - {!worst_case} (Figure 5): an [n]-process pattern in which every
      process ends up retaining exactly [n] checkpoints — the algorithm's
      tight bound — and transiently [n+1] while storing one more.

    Figure 3's exact message pattern is not specified in the paper (the
    figure only shows which checkpoints end up gray); {!recovery_ccp}
    builds a 4-process CCP in its spirit, on which the recovery-line
    computations are cross-checked. *)

type figure1 = {
  ccp : Rdt_ccp.Ccp.t;
  trace : Rdt_ccp.Trace.t;  (** for rendering with [Rdt_ccp.Diagram] *)
  m1 : int;
  m2 : int;
  m3 : int;
  m4 : int;
  m5 : int;
}

val figure1 : unit -> figure1
val figure1_without_m3 : unit -> Rdt_ccp.Ccp.t

type figure2 = {
  ccp : Rdt_ccp.Ccp.t;  (** the uncoordinated (no forced checkpoints) CCP *)
  trace : Rdt_ccp.Trace.t;
  m1 : int;
  m2 : int;
  m3 : int;
  m4 : int;
}

val figure2 : unit -> figure2

val figure2_with_protocol : Rdt_protocols.Protocol.t -> Script.t
(** The Figure 2 interleaving executed under a real protocol middleware
    (forced checkpoints included); used to show FDAS preventing the
    domino effect. *)

val figure4_steps : (string * Script.op list) list
[@@lint.reference
  "Figure 4 as data: Algorithm 4 and the oracle battery replay the same ops"]
(** Figure 4's execution after the initial checkpoints, one labelled op
    group per event of the figure: a message is its [Send] and its
    [Deliver] (ids 0 to 3, in send order), a checkpoint one op. *)

val figure4 : ?on_step:(string -> Script.t -> unit) -> unit -> Script.t
(** Applies {!figure4_steps} to completion (FDAS + RDT-LGC), calling
    [on_step label s] on the initial state and after every op group. *)

val recovery_ccp : unit -> Rdt_ccp.Ccp.t
(** A 4-process CCP exercising recovery-line determination (Figure 3's
    role). *)

val worst_case : n:int -> Script.t
(** Figure 5's worst case for [n] processes: drives [n] phases after
    which every process retains exactly [n] stable checkpoints (in phase
    [k], [p_k] sends message id [dst] to each other process [dst], and
    every message is delivered before the phase's checkpoints); the
    script ends *before* the extra simultaneous checkpoint (take one more
    checkpoint per process to observe the transient [n+1]). *)
