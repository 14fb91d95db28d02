(** Messages on the simulated network.

    Application messages carry the checkpointing middleware's control
    information.  The [Gc_*] messages are the control traffic of the
    coordinated baselines — exactly the traffic RDT-LGC is designed to do
    without. *)

type t =
  | App of Rdt_protocols.Middleware.message
  | Gc_query of { round : int }  (** coordinator asks for a state snapshot *)
  | Gc_reply of {
      round : int;
      pid : int;
      snapshot : Rdt_gc.Global_gc.snapshot;
    }
  | Gc_collect of { round : int; indices : int list }
      (** coordinator orders elimination of these checkpoint indices *)
