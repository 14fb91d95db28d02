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

val copy : t -> t
val size : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit

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
    {!copy}).  @raise Invalid_argument on size mismatch. *)

val max_into : src:t -> dst:t -> unit
(** [max_into ~src ~dst]: pointwise [dst.(j) <- max dst.(j) src.(j)] — the
    Equation-2 merge without the change notifications of
    {!merge_from_message_iter}. *)

val compare_le : t -> t -> bool
(** [compare_le a b]: componentwise [a.(j) <= b.(j)] with early exit. *)

val iteri : t -> f:(int -> int -> unit) -> unit
(** [iteri t ~f] calls [f j t.(j)] for each entry in ascending order
    without allocating. *)

val merge_from_message : t -> int array -> int list
(** [merge_from_message dv m_dv] applies the receive rule
    [dv.(j) <- max dv.(j) m_dv.(j)] and returns the (sorted) list of entries
    that strictly increased — exactly the "new causal info" entries RDT-LGC
    reacts to (Algorithm 2, receiving [m], line 2).  The incoming vector is
    a plain array because that is how it travels inside messages. *)

val merge_from_message_iter : t -> int array -> f:(int -> unit) -> unit
(** Allocation-free {!merge_from_message}: calls [f j] (ascending [j]) for
    every entry that strictly increased instead of building a list.  The
    receive path runs this once per delivered message, so the middleware
    uses this variant to feed RDT-LGC's [on_new_dependency] hook directly. *)

val newer_entries : local:int array -> incoming:int array -> int list
(** Entries [j] with [incoming.(j) > local.(j)], without mutating;
    the test protocols such as FDAS use to detect new dependencies. *)

val has_newer_entries : local:int array -> incoming:int array -> bool
(** [newer_entries ~local ~incoming <> []] without building the list and
    with early exit — the per-receive test of FDAS/FDI/CBR. *)

val last_known : t -> int -> int
(** Equation 3: [last_known dv j = dv.(j) - 1]. *)

val checkpoint_precedes : index:int -> of_:int -> t -> bool
(** [checkpoint_precedes ~index:alpha ~of_:a dv_beta] implements
    Equation 2: does [c^alpha_a] causally precede the checkpoint whose
    stored vector is [dv_beta]?  Only meaningful on RD-trackable
    executions. *)

val equal : t -> t -> bool

val to_array : t -> int array
(** Fresh owned copy of the contents. *)

val of_array : int array -> t
(** Fresh vector copied from [a]; the caller keeps its array. *)

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

val pp : Format.formatter -> t -> unit
