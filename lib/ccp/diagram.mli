(** ASCII space-time diagrams of recorded executions.

    One row per process, one column per event in global (causal
    linearization) order:

    {v
    p0 [0]  m0>              [1]  m2>
    p1 [0]       >m0  [1]              >m2
    v}

    [\[k\]] is stable checkpoint [s^k]; [mX>] a send and [>mX] the
    matching receive of message [X].  Intended for the small hand-built
    patterns of the paper's figures and for CLI inspection of short runs
    — wide executions are truncated to the last [max_events] columns. *)

val print : ?max_events:int -> Trace.t -> unit
(** Prints the diagram to stdout ([max_events] defaults to 64 columns). *)
