(** Persistent domain team for barrier-synchronized rounds — the
    project's one module that spawns domains.

    A round re-invokes the {e same} [size] members — member [i] always
    processes index [i] — with a full barrier at its end.  The sharded
    simulation engine drives one round per conservative time window, so
    rounds are built to be cheap: a steady-state round allocates nothing
    (the job lives in a plain field, round start and completion travel
    through atomic counters), and members spin briefly on those counters
    before parking on a condition variable, so back-to-back windows avoid
    the mutex entirely while an idle team still sleeps.  The experiment
    harness's fan-out of independent simulation cells is one round too
    ({!map}), whose members claim input indices.

    Publication: the release write that opens a round publishes the
    caller's plain (non-atomic) mutable state to the workers, and each
    worker's release decrement at the barrier publishes its writes back —
    these are the happens-before edges that let the engine hand plain
    shard state from one round's writer to the next round's reader.  This
    is the project's designated home for [Domain]/[Mutex]/[Condition]/
    [Atomic] use — rdt_lint's det/* rules flag those primitives anywhere
    else. *)

type t

val create : size:int -> t
(** Spawn [size - 1] worker domains (the caller is member 0).
    @raise Invalid_argument if [size < 1]. *)

val run_sub : t -> active:int -> (int -> unit) -> unit
(** [run_sub t ~active f] executes [f i] for every member [i] in
    [0 .. active-1] ([active] is clamped to the team size), [f 0] on the
    calling domain (where {!self_index} reads [0] for its duration, even
    when the caller is itself a member of another team's round), and
    returns once {e all} of them finished (the barrier); the remaining
    members stay parked, so one long-lived team serves engines of
    different shard counts.  With [active = 1] the job
    runs inline on the caller and no worker is woken.  If any [f i]
    raises, the exception of the lowest failing index is re-raised in the
    caller after the barrier completes, so error propagation is
    independent of domain scheduling.  Not reentrant: do not call
    {!run_sub} from inside [f]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs] in one {!run_sub}
    round over [min size (List.length xs)] members, each claiming the next
    unclaimed input, and returns the results in the order of [xs] — so a
    caller that prints from them produces the same bytes at any team
    size.  If any application raises, the first exception in input order
    is re-raised after every application has run.  A size-1 team or an
    empty list runs inline on the caller.  [f] must not start a round on
    [t]; it may run rounds on another team. *)

val self_index : unit -> int
(** Index of the round member the current domain is executing as; [0] on
    any domain outside a round (in particular the caller between rounds).
    Backed by domain-local storage. *)

val shutdown : t -> unit
(** Join the worker domains; idempotent.  The team must not be used
    afterwards. *)

val hardware_parallelism : unit -> int
(** [Domain.recommended_domain_count ()], re-exported so engine-side
    dispatch policy (parallel teams vs inline windowed execution) can ask
    without using [Domain] outside this library. *)

(** {2 The process-wide shared team}

    Spawning domains dominates team setup, so repeated short runs
    (benchmarks, sweeps, tests) borrow one process-wide team instead of
    spawning per run.  Borrowing is exclusive: a second concurrent
    borrower gets [None] and should fall back to a private {!create}d
    team.  The shared team grows when a borrower asks for more members
    than it has, and is joined automatically at process exit. *)

val shared_acquire : size:int -> t option
(** Borrow the shared team with at least [size] members, growing it if
    needed; [None] if another borrower currently holds it. *)

val shared_release : t -> unit
(** Return a team obtained from {!shared_acquire}.  Never shuts it down;
    releasing a stale team (one the registry has since replaced) is a
    no-op. *)
