(** Transitive dependency vectors (Strom & Yemini), as used by RDT
    checkpointing protocols and by RDT-LGC (paper, Section 4.2).

    Conventions (matching the paper):
    - entry [i] of process [p_i]'s vector is the index of its *current
      checkpoint interval*; it is incremented immediately after a new
      checkpoint is taken.  Interval [I^gamma] is the span between
      checkpoints [c^(gamma-1)] and [c^gamma], so after storing the initial
      checkpoint [s^0] the current interval is 1.
    - entry [j <> i] is the highest interval index of [p_j] on which [p_i]
      (causally) depends, updated on message receipt.

    Equation 2 of the paper: [c^alpha_a -> c^beta_b  <=>  alpha < DV(c^beta_b)[a]]
    — valid when the execution is RD-trackable.
    Equation 3: [last_k_i(j) = DV(v_i)[j] - 1] (index of the last stable
    checkpoint of [p_j] known to [p_i]; [-1] when none). *)

type t

val create : n:int -> t
(** All-zero vector (the paper's initial value). *)

val get : t -> int -> int

val increment : t -> int -> unit
(** [increment dv i]: the step performed immediately after process [i]
    takes a checkpoint. *)

(** {2 In-place, allocation-free operations}

    The middleware's steady state must not allocate (DESIGN.md §10): these
    variants mutate a caller-owned destination instead of returning fresh
    arrays.  Each performs one arity check at the entry point and then runs
    an unchecked inner loop. *)

val blit_into : src:t -> dst:t -> unit
(** [blit_into ~src ~dst] overwrites [dst] with [src] (in-place
    copy).  @raise Invalid_argument on size mismatch. *)

val merge_from_message_iter : t -> int array -> f:(int -> unit) -> unit
(** [merge_from_message_iter dv m_dv ~f] applies the receive rule
    [dv.(j) <- max dv.(j) m_dv.(j)] and calls [f j] (ascending [j]) for
    every entry that strictly increased — exactly the "new causal info"
    entries RDT-LGC reacts to (Algorithm 2, receiving [m], line 2).  The
    middleware runs this once per delivered message to feed RDT-LGC's
    [on_new_dependency] hook directly, without building a list.  The
    incoming vector is a plain array because that is how it travels inside
    messages. *)

val has_newer_entries : local:int array -> incoming:int array -> bool
(** Is there an entry [j] with [incoming.(j) > local.(j)]?  Early exit,
    no mutation — the per-receive test of FDAS/FDI/CBR for new
    dependencies. *)

val to_array : t -> int array
(** Fresh owned copy of the contents. *)

val view : t -> int array
(** Borrowed read-only view — no copy.  The returned array aliases the
    live vector: callers must not mutate it and must not retain it across
    a subsequent mutation of the vector (ownership rules in DESIGN.md
    §10).  Use {!to_array} when the result must survive. *)

val of_view : int array -> t
(** Wrap a caller-owned array as a vector without copying — the dual of
    {!view}, for running the in-place operations above against an array
    that arrived from a message or a stored checkpoint.  The same aliasing
    caveats apply. *)
