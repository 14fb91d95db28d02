(** Literal implementation of the paper's Algorithm 4: FDAS with RDT-LGC
    merged into a single state machine.

    The rest of this library composes a generic middleware with a pluggable
    protocol and collector; this module instead transcribes Algorithm 4
    line by line — one [sent] flag, the dependency vector, the UC/CCB
    structures and the stable store, all in one record — the way a
    production checkpointing layer would ship it.  The paper's Section 4.5
    argues the merge adds no asymptotic cost; the test suite checks
    behavioural equivalence with the composed stack
    ([Middleware] + {!Rdt_lgc}) on arbitrary operation sequences. *)

type t

val create : n:int -> me:int -> t
[@@lint.reference "Algorithm 4 as written: the composed stack is tested equal to it"]
(** Initialization: [sent <- false; initialize()], then the initial
    checkpoint [s^0] is stored. *)

val dv : t -> int array
[@@lint.reference "Algorithm 4 as written: the composed stack is tested equal to it"]
(** Copy of the current dependency vector. *)

val uc_view : t -> int option array
[@@lint.reference "Algorithm 4 as written: the composed stack is tested equal to it"]
(** Current UC contents as checkpoint indices ([None] = Null). *)

val store : t -> Rdt_storage.Stable_store.t
[@@lint.reference "Algorithm 4 as written: the composed stack is tested equal to it"]

val basic_checkpoint : t -> now:float -> unit
[@@lint.reference "Algorithm 4 as written: the composed stack is tested equal to it"]
(** The "on taking checkpoint" block for a basic checkpoint. *)

val before_send : t -> Rdt_protocols.Control.t
[@@lint.reference "Algorithm 4 as written: the composed stack is tested equal to it"]
(** "Before sending m": sets [sent] and returns the control information to
    piggyback. *)

val receive : t -> Rdt_protocols.Control.t -> now:float -> unit
[@@lint.reference "Algorithm 4 as written: the composed stack is tested equal to it"]
(** "On receiving m": takes the forced checkpoint if the message brings
    new causal information while [sent] holds, then updates DV and the
    UC references entry by entry (Algorithm 4's loop). *)

val forced_count : t -> int
[@@lint.reference "Algorithm 4 as written: the composed stack is tested equal to it"]
val basic_count : t -> int
[@@lint.reference "Algorithm 4 as written: the composed stack is tested equal to it"]
