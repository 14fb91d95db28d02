(** Path-based rule scoping.  All matching is on the source path recorded
    in the .cmt (relative to the build root). *)

type t = {
  lib_prefixes : string list;
  hashtbl_det_prefixes : string list;
  realtime_prefixes : string list;
  unsafe_allowlist : string list;
  test_prefixes : string list;
}

val default : t
(** The project policy: everything under [lib/] is in scope, with no
    Domain.spawn or Atomic anywhere; Hashtbl iteration order matters
    in [lib/sim/], [lib/verify/], [lib/scenarios/], [lib/ccp/],
    [lib/core/] and [lib/metrics/]; wall-clock
    reads are legal only in [lib/live/] (the real-time runtime — its
    transport seam [lib/transport/] stays deterministic); unsafe
    indexing only in the allowlisted files; a [lib/] export that only
    [test/] references is dead/test-only. *)

val normalize_path : string -> string
val in_lib : t -> string -> bool
val in_hashtbl_det : t -> string -> bool

(** [in_realtime] is the scope where [det/wall-clock] does not apply. *)
val in_realtime : t -> string -> bool
val unsafe_allowed : t -> string -> bool
val in_test : t -> string -> bool
