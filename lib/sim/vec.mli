(** Growable arrays (OCaml 5.1 predates [Dynarray]).

    Used for the CCP analysis's message log and per-process checkpoint
    vector clocks ([Rdt_ccp.Ccp]), which grow by appending and are cleared
    on a rebuild, and for the DV archive's one vector per index
    ([Rdt_storage.Dv_archive]), which also truncates from the end on a
    rollback. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val push : 'a t -> 'a -> unit

val truncate : 'a t -> int -> unit
(** [truncate v len] drops elements so that [length v = len]; no-op when
    already shorter.  Dropped elements are no longer reachable from [v].
    @raise Invalid_argument if [len < 0]. *)

val clear : 'a t -> unit
(** [truncate v 0]: also releases the backing array. *)

val to_array : 'a t -> 'a array
