type t =
  | App of Rdt_protocols.Middleware.message
  | Gc_query of { round : int }
  | Gc_reply of {
      round : int;
      pid : int;
      snapshot : Rdt_gc.Global_gc.snapshot;
    }
  | Gc_collect of { round : int; indices : int list }

let pp ppf = function
  | App m ->
    Format.fprintf ppf "app#%d from p%d" m.Rdt_protocols.Middleware.msg_id
      m.Rdt_protocols.Middleware.src
  | Gc_query { round } -> Format.fprintf ppf "gc-query r%d" round
  | Gc_reply { round; pid; _ } -> Format.fprintf ppf "gc-reply r%d p%d" round pid
  | Gc_collect { round; indices } ->
    Format.fprintf ppf "gc-collect r%d [%d]" round (List.length indices)
