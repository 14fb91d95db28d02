(** Reproducer shrinking (delta debugging).

    Minimizes a failing scenario while preserving {e how} it fails:
    chunked op removal (ddmin) interleaved with whole-process removal and
    a greedy single-op pass, iterated to a fixpoint.  Candidates are
    statically {!Scenario.normalize}d, so blind removal cannot produce an
    ill-formed scenario. *)

val default_budget : int

val minimize_with :
  ?budget:int -> check:(Scenario.t -> bool) -> Scenario.t -> Scenario.t
(** [check cand] must re-run the (already normalized) candidate and
    report whether it still exhibits the original failure — for the
    fuzz campaigns, whether it still violates the same oracle
    ({!Fuzz.fails_with}).  [budget] caps the number of [check] calls
    (default {!default_budget}); the result is the smallest reproducer
    found within it.  Deterministic when [check] is. *)
