type t =
  | App of Rdt_protocols.Middleware.message
  | Gc_query of { round : int }
  | Gc_reply of {
      round : int;
      pid : int;
      snapshot : Rdt_gc.Global_gc.snapshot;
    }
  | Gc_collect of { round : int; indices : int list }
