(** Persistent domain team for the experiment harness's fan-out of
    independent simulation cells — the project's one module that spawns
    domains.

    A team of [size] members (the caller plus [size - 1] worker domains)
    runs one {!map} round at a time; workers park on a condition variable
    between rounds, so an idle team sleeps and repeated maps reuse the
    same domains.  This is the project's designated home for
    [Domain]/[Mutex]/[Condition]/[Atomic] use — rdt_lint's det/* rules
    flag those primitives anywhere else. *)

type t

val create : size:int -> t
(** Spawn [size - 1] worker domains (the caller is member 0).
    @raise Invalid_argument if [size < 1]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs] in one round over
    [min size (List.length xs)] members, each claiming the next unclaimed
    input, and returns the results in the order of [xs] — so a caller
    that prints from them produces the same bytes at any team size.  If
    any application raises, the first exception in input order is
    re-raised after every application has run.  A size-1 team or an
    empty list runs inline on the caller.  [f] must not start a round on
    [t]. *)

val shutdown : t -> unit
(** Join the worker domains; idempotent.  The team must not be used
    afterwards. *)

val hardware_parallelism : unit -> int
(** [Domain.recommended_domain_count ()], re-exported so [-j 0] can ask
    without using [Domain] outside this library. *)
