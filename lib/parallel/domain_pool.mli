(** Fixed-size domain pool for embarrassingly parallel fan-out.

    The experiment harness evaluates many independent simulation cells
    (one per (pattern, n, policy, seed) combination); each cell owns its
    PRNG and trace, so cells never share mutable state and can run on
    separate domains.  The pool hands out cells from a shared queue and
    writes each result into a slot indexed by the cell's input position,
    so {!map} returns results in input order no matter which domain
    finished first — callers that print from the ordered results produce
    byte-identical output at any [jobs] value.

    [jobs = 1] degrades to a plain in-caller [List.map] (no domains are
    ever spawned), which is also the only mode available when the pool
    itself runs inside a domain: OCaml domains must not spawn from
    spawned domains' pools concurrently.  The pool is not reentrant —
    do not call {!map} from inside a task. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the machine's useful
    parallelism. *)

val create : ?jobs:int -> unit -> t
(** A pool running tasks on [jobs] domains ([default_jobs ()] when
    omitted; values [< 1] are clamped to 1).  The pool spawns [jobs - 1]
    worker domains; the caller's domain is the remaining worker, joining
    the fan-out inside {!map} so a [jobs = 1] pool is purely
    sequential. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs], running up to
    [jobs] applications concurrently, and returns the results in
    the order of [xs].  If any application raises, the first exception
    (in input order) is re-raised in the caller after all tasks have
    drained.  [f] must not call back into the pool. *)

val shutdown : t -> unit
(** Join the worker domains.  The pool must not be used afterwards;
    idempotent. *)
